package debugserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Fetch GETs section name from the debug server at addr ("host:port" or
// a full URL) and decodes its JSON body. Any non-200 answer — the
// section's "not enabled" and "no data yet" 404s included — is an error
// carrying the server's message.
func Fetch[T any](addr, name string) (*T, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/debug/" + name
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	v := new(T)
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", url, err)
	}
	return v, nil
}

// Poller samples a section on a fixed period and keeps the last value
// seen. A process that exits the moment its run completes (a
// coordinator) cannot be asked afterwards, so the last sample taken
// while it lived is the run's final reading.
type Poller[T any] struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	last *T
}

// Poll calls fetch every interval until Stop. A fetch that fails or
// returns nil leaves the last value in place.
func Poll[T any](every time.Duration, fetch func() (*T, error)) *Poller[T] {
	p := &Poller[T]{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			if v, err := fetch(); err == nil && v != nil {
				p.last = v
			}
		}
	}()
	return p
}

// Stop halts polling and returns the last value seen (nil when fetch
// never produced one). Idempotent.
func (p *Poller[T]) Stop() *T {
	p.once.Do(func() { close(p.stop) })
	<-p.done
	return p.last
}
