package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"time"

	"streammine/internal/core"
)

// runCfg is one run of one workload.
type runCfg struct {
	seed    uint64
	warm    time.Duration // run before measuring, so caches fill and lazy set-up finishes
	measure time.Duration
	traced  bool          // record spans and install the timing wrappers
	setups  int           // how many times to set the system up for setup_s
	stall   time.Duration // closed-loop gates give up on outstanding events after this long without a final
	drain   time.Duration // longest wait for outstanding finals after the generator stops
	quiet   time.Duration // drain also ends once the engines have been quiesced this long
	sub     time.Duration // traced pass: length of each short reference run
	probe   time.Duration // traced pass: length of each isolated probe
	spans   string        // traced pass: file to write the spans to, if any
}

// value is one reported figure.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // sample count behind a timing
	Note    string  `json:"note,omitempty"`
}

// result is what one run reports.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Traced    bool             `json:"traced"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  []failure        `json:"first_failures,omitempty"`
	Invalid   string           `json:"invalid,omitempty"` // why the run's figures should not be trusted
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = value{Value: v, Unit: unit}
}

func (r *result) setTiming(name string, ns int64, unit string, samples int, note string) {
	div := 1e3
	if unit == "ms" {
		div = 1e6
	}
	r.Metrics[name] = value{Value: float64(ns) / div, Unit: unit, Samples: samples, Note: note}
}

// mark is a reading of the process-wide meters at one instant.
type mark struct {
	ns      int64 // harness clock
	cpuNs   int64
	mallocs uint64
	finals  int64
}

var mallocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func takeMark(s *sink) (mark, error) {
	cpu, err := cpuTime()
	if err != nil {
		return mark{}, err
	}
	metrics.Read(mallocSample)
	return mark{ns: s.now(), cpuNs: cpu, mallocs: mallocSample[0].Value.Uint64(), finals: s.finals.Load()}, nil
}

// sliceLength is the target length of one slice of the measured window.
// The end-to-end figures are taken over the whole window; the slices are
// there for the reader, who sees a stall or a disturbed stretch of the run
// as a low or empty slice in the run's note.
const sliceLength = 2 * time.Second

// boundaries returns the harness-clock times that cut cfg.measure,
// starting at from, into slices.
func boundaries(from int64, cfg runCfg) []int64 {
	n := max(1, int(cfg.measure/sliceLength))
	b := make([]int64, n+1)
	for i := range b {
		b[i] = from + int64(cfg.measure)*int64(i)/int64(n)
	}
	return b
}

// phases turns the harness clock into the run's phases for a generator
// loop: warm-up, then the slices of the measured window, then stop. It
// takes a mark at every slice boundary as the loop crosses it.
type phases struct {
	s     *sink
	at    []int64 // slice boundaries; at[0] ends the warm-up
	marks []mark  // marks[i] was taken at at[i]
	start mark    // taken when the run began, before the warm-up
}

func newPhases(s *sink, cfg runCfg) (*phases, error) {
	start, err := takeMark(s)
	return &phases{s: s, at: boundaries(start.ns+int64(cfg.warm), cfg), start: start}, err
}

// wholeRun is the window to fall back on when the measured one saw no
// final: from the start of the run to now, which the caller makes the end
// of the drain. It only happens on a machine too starved to finish anything
// in time (the smoke test's 200 ms on a throttled CI box); figures are then
// of the whole run, warm-up included.
func (p *phases) wholeRun() ([]mark, error) {
	end, err := takeMark(p.s)
	return []mark{p.start, end}, err
}

// measuring reports whether the run is inside the measured window.
func (p *phases) measuring() bool { return len(p.marks) > 0 && len(p.marks) < len(p.at) }

// running advances the phase for the given time and reports whether the
// generator should keep going.
func (p *phases) running(now int64) (bool, error) {
	for len(p.marks) < len(p.at) && now >= p.at[len(p.marks)] {
		m, err := takeMark(p.s)
		if err != nil {
			return false, err
		}
		p.marks = append(p.marks, m)
	}
	return len(p.marks) < len(p.at), nil
}

// drain waits for the finals still outstanding once the generator has
// stopped: until all have arrived, or every engine has been quiesced for
// cfg.quiet (whatever is missing then will never come), or cfg.drain has
// passed. Whatever is still missing afterwards is a failed operation.
func drain(s *sink, cfg runCfg, engines ...*core.Engine) {
	deadline := time.Now().Add(cfg.drain)
	var quietSince time.Time
	for s.finals.Load() < s.emitted.Load() && time.Now().Before(deadline) {
		quiesced := true
		for _, e := range engines {
			quiesced = quiesced && e.Quiesced()
		}
		switch {
		case !quiesced:
			quietSince = time.Time{}
		case quietSince.IsZero():
			quietSince = time.Now()
		case time.Since(quietSince) >= cfg.quiet:
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// endToEnd fills in the metrics every workload reports, each taken over
// the whole measured window (marks are its slice boundaries). whole is the
// fallback when the window has nothing to report.
func endToEnd(r *result, s *sink, marks, whole []mark) error {
	if err := windowFigures(r, s, marks); err == nil {
		return nil
	}
	r.Notes = append(r.Notes, "nothing was finalized within the measured window; the figures below are of the whole run, warm-up and drain included")
	return windowFigures(r, s, whole)
}

func windowFigures(r *result, s *sink, marks []mark) error {
	n := len(marks) - 1
	if n < 1 {
		return fmt.Errorf("bench: the run ended before its measured window did")
	}
	from, to := marks[0], marks[n]
	secs := float64(to.ns-from.ns) / 1e9
	events := float64(to.finals - from.finals)
	// Latency samples are the events created (or due) inside the window,
	// whenever their final arrived; one that never did is a failed
	// operation, not a sample.
	var first, final []int64
	for i := int64(1); i <= s.emitted.Load(); i++ {
		sl := &s.slots[i]
		if sl.dueNs < from.ns || sl.dueNs >= to.ns {
			continue
		}
		if t := sl.firstNs.Load(); t != 0 {
			first = append(first, t-sl.dueNs)
		}
		if t := sl.finalNs.Load(); t != 0 {
			final = append(final, t-sl.dueNs)
		}
	}
	fs, ls := summarize(first, 0.99), summarize(final, 0.99)
	if events <= 0 || fs.n == 0 || ls.n == 0 {
		return fmt.Errorf("bench: nothing was finalized in the measured window (%.3f s)", secs)
	}
	r.set("events_per_s", events/secs, "1/s")
	r.set("cpu_us_per_event", float64(to.cpuNs-from.cpuNs)/1e3/events, "us")
	r.set("allocs_per_event", float64(to.mallocs-from.mallocs)/events, "count")
	r.setTiming("first_p50_us", fs.p50, "us", fs.n, "")
	r.setTiming("first_p99_us", fs.tail, "us", fs.n, tailNote(fs))
	r.setTiming("final_p50_us", ls.p50, "us", ls.n, "")
	r.setTiming("final_p99_us", ls.tail, "us", ls.n, tailNote(ls))
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = float64(marks[i+1].finals-marks[i].finals) / (float64(marks[i+1].ns-marks[i].ns) / 1e9)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("events_per_s by slice of %.2f s: %.0f (lowest %.0f)", secs/float64(n), rates, slices.Min(rates)))
	return nil
}

// tailNote says which percentile a p99 metric was really read at when the
// sample was too small for the 99th.
func tailNote(s summary) string {
	if s.tailQ == 0.99 {
		return ""
	}
	return fmt.Sprintf("read at p%g: %d samples do not support p99", s.tailQ*100, s.n)
}

// verdictInto files the checker's verdict in the result.
func verdictInto(r *result, v verdict) {
	r.Attempted += v.attempted
	r.Failed += v.failed
	r.Failures = append(r.Failures, v.first...)
	if len(r.Failures) > maxListedFailures {
		r.Failures = r.Failures[:maxListedFailures]
	}
	r.set("core.reordered", r.Metrics["core.reordered"].Value+float64(v.reordered), "count")
	if v.reordered > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%d correct finals show that a node applied events in another order than they were emitted", v.reordered))
	}
}

// faultsInto counts what is wrong beyond single events: outputs that
// belong to no emitted event, and engines that recorded an error.
func faultsInto(r *result, strays int64, engines ...*core.Engine) {
	if strays > 0 {
		r.Failed += strays
		r.Failures = append(r.Failures, failure{Reason: fmt.Sprintf("%d outputs carried an index that was never emitted", strays)})
	}
	for _, e := range engines {
		if err := e.Err(); err != nil {
			r.Failed++
			r.Failures = append(r.Failures, failure{Reason: "engine error: " + err.Error()})
		}
	}
}
