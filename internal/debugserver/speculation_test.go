package debugserver

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"streammine/internal/metrics"
	"streammine/internal/profiler"
)

// TestSpeculationEndpoint covers the /debug/speculation body: an
// application/json profiler summary that round-trips through the JSON
// schema tracetool consumes (TestSectionRoutes covers the 404s).
func TestSpeculationEndpoint(t *testing.T) {
	s := New(metrics.NewRegistry(), nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr

	prof := profiler.New(profiler.Config{})
	np := prof.Node("agg")
	np.AbortedAttempt(profiler.CauseConflict, 3*time.Millisecond, 2)
	np.AttemptCPU(10 * time.Millisecond)
	s.Register(Section{Name: "speculation", Get: func() any { return prof.Summary() }})

	code, body, hdr := get(t, base+"/debug/speculation")
	if code != http.StatusOK {
		t.Fatalf("/debug/speculation = %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q, want application/json", ct)
	}
	var sum profiler.Summary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("body is not a summary: %v\n%s", err, body)
	}
	nw := sum.NodeByName("agg")
	if nw == nil {
		t.Fatalf("summary has no agg ledger: %s", body)
	}
	if nw.AbortedAttempts["conflict"] != 1 || nw.WastedCPUNs["conflict"] != 3_000_000 {
		t.Errorf("agg ledger = %+v, want 1 conflict abort, 3ms wasted", nw)
	}
}

// expositionLine matches one Prometheus text-format sample:
// name{labels} value — label values with escaped quotes included.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+$`)

// TestMetricsExpositionParses scrapes /metrics populated with every
// series kind (counter, labeled counter with escaping-hostile values,
// gauge, histogram) and checks line-by-line well-formedness.
func TestMetricsExpositionParses(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("events_total", "Events.").Add(7)
	reg.CounterWith("aborts_total", "Aborts.", metrics.Labels{"cause": "conflict", "note": "say \"hi\"\nbye\\"}).Inc()
	reg.Gauge("depth", "Depth.").Set(3)
	reg.HDR("latency", "Latency.").Record(time.Millisecond)

	s := New(reg, nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body, hdr := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	types := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}
	for name, typ := range map[string]string{
		"events_total": "counter", "aborts_total": "counter",
		"depth": "gauge", "latency": "histogram",
	} {
		if types[name] != typ {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], typ)
		}
	}
}
