package debugserver

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streammine/internal/metrics"
)

// TestFetch reads a section through the client the tools use: a served
// body decodes into the caller's type, and a section's 404 comes back as
// an error carrying the server's message.
func TestFetch(t *testing.T) {
	s := New(metrics.NewRegistry(), nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type view struct {
		Workers int `json:"workers"`
	}
	s.Register(Section{Name: "view", Get: func() any { return view{Workers: 2} }})

	for _, a := range []string{addr, "http://" + addr + "/"} {
		v, err := Fetch[view](a, "view")
		if err != nil || v.Workers != 2 {
			t.Errorf("Fetch(%q) = %+v, %v; want workers 2", a, v, err)
		}
	}
	if _, err := Fetch[view](addr, "health"); err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Errorf("Fetch of an unregistered section = %v, want the server's not-enabled message", err)
	}
}

// TestPollKeepsLastValue: failed and empty fetches leave the last value
// in place, and Stop is idempotent.
func TestPollKeepsLastValue(t *testing.T) {
	var calls atomic.Int64
	p := Poll(time.Millisecond, func() (*int, error) {
		switch n := int(calls.Add(1)); {
		case n == 1:
			return nil, errors.New("not up yet")
		case n <= 3:
			return &n, nil
		default:
			return nil, nil // nothing new: keep 3
		}
	})
	for deadline := time.Now().Add(5 * time.Second); calls.Load() < 5; {
		if time.Now().After(deadline) {
			t.Fatal("poller never ran five fetches")
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Stop(); got == nil || *got != 3 {
		t.Errorf("Stop() = %v, want 3", got)
	}
	if got := p.Stop(); got == nil || *got != 3 {
		t.Errorf("second Stop() = %v, want 3", got)
	}
}
