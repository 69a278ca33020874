package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Gauge is a concurrent instantaneous value (e.g. queue depth, buffer
// retention). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc increments by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Labels attach dimensions to a metric series. Every distinct
// (name, labels) pair is an independent series; labels are rendered
// sorted by key in the exposition output.
type Labels map[string]string

// seriesKind discriminates what a registered series holds.
type seriesKind int

const (
	kindCounter seriesKind = iota + 1
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHDR
)

// exposition type name for the # TYPE line.
func (k seriesKind) typeName() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered metric stream: a name, a rendered label set
// and exactly one value source.
type series struct {
	name      string
	labels    string // `key="val",...` sorted by key; "" when unlabeled
	kind      seriesKind
	counter   *Counter
	gauge     *Gauge
	hdr       *HDR
	hdrRaw    bool // raw-unit HDR (counts, depths) vs nanoseconds
	counterFn func() uint64
	gaugeFn   func() float64
}

// Registry is a concurrent collection of named metric series with a
// Prometheus-style text exposition. Registration is cheap but not
// hot-path; callers resolve handles (Counter/Gauge/HDR pointers)
// once and then update them with plain atomic operations.
//
// Registering the same (name, labels) pair again returns the existing
// handle for counters, gauges and HDR histograms (so independent subsystems
// can share a series), and *rebinds* func-backed series (so a freshly
// built engine can take over the series of a stopped one). Registering
// the same pair with a different metric kind panics: that is a
// programming error, not a runtime condition.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*series
	order []*series
	help  map[string]string // per name, first registration wins
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey: make(map[string]*series),
		help:  make(map[string]string),
	}
}

// renderLabels renders a label set in canonical (sorted) form.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote and newline only. Go's %q
// would over-escape (\t, non-ASCII, ...), which scrapers then read as
// literal backslash sequences.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only (quotes are
// legal in HELP).
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	var b strings.Builder
	b.Grow(len(h) + 2)
	for i := 0; i < len(h); i++ {
		switch h[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(h[i])
		}
	}
	return b.String()
}

// register adds or resolves a series and binds its value source, both in
// one registry lock hold, so that a series is never published without one:
// bind gives a new series its handle or func, and rebinds a func-backed
// series (a handle, once made, stays).
func (r *Registry) register(name, help string, labels Labels, kind seriesKind, bind func(*series)) *series {
	key := name + "{" + renderLabels(labels) + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind.typeName() != kind.typeName() {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)",
				key, kind.typeName(), s.kind.typeName()))
		}
		s.kind = kind // funcs rebind below; handle kinds keep their slot
		bind(s)
		return s
	}
	s := &series{name: name, labels: renderLabels(labels), kind: kind}
	bind(s)
	r.byKey[key] = s
	r.order = append(r.order, s)
	if _, ok := r.help[name]; !ok && help != "" {
		r.help[name] = help
	}
	return s
}

// Counter registers (or resolves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil)
}

// CounterWith registers (or resolves) a counter series with labels.
func (r *Registry) CounterWith(name, help string, labels Labels) *Counter {
	return r.register(name, help, labels, kindCounter, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
	}).counter
}

// Gauge registers (or resolves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help, nil)
}

// GaugeWith registers (or resolves) a gauge series with labels.
func (r *Registry) GaugeWith(name, help string, labels Labels) *Gauge {
	return r.register(name, help, labels, kindGauge, func(s *series) {
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
	}).gauge
}

// HDR registers (or resolves) an unlabeled high-resolution latency
// histogram, recorded in nanoseconds and exposed as a Prometheus classic
// histogram (_bucket/_sum/_count, in seconds).
func (r *Registry) HDR(name, help string) *HDR {
	return r.HDRWith(name, help, nil)
}

// HDRWith registers (or resolves) an HDR latency series with labels.
func (r *Registry) HDRWith(name, help string, labels Labels) *HDR {
	return r.hdrWith(name, help, labels, false)
}

// HDRCounts registers (or resolves) an HDR series holding raw (unitless)
// values — queue depths, cascade sizes — exposed as a Prometheus classic
// histogram with unscaled bucket bounds.
func (r *Registry) HDRCounts(name, help string) *HDR {
	return r.hdrWith(name, help, nil, true)
}

// HDRCountsWith registers (or resolves) a raw-unit HDR series with
// labels.
func (r *Registry) HDRCountsWith(name, help string, labels Labels) *HDR {
	return r.hdrWith(name, help, labels, true)
}

func (r *Registry) hdrWith(name, help string, labels Labels, raw bool) *HDR {
	return r.register(name, help, labels, kindHDR, func(s *series) {
		if s.hdr == nil {
			s.hdr = NewHDR()
			s.hdrRaw = raw
		}
	}).hdr
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time (for counters that already live elsewhere as atomics —
// zero hot-path cost). Re-registering rebinds the series to fn.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.register(name, help, labels, kindCounterFunc, func(s *series) { s.counterFn = fn })
}

// GaugeFunc registers a gauge read from fn at exposition time.
// Re-registering rebinds the series to fn.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, labels, kindGaugeFunc, func(s *series) { s.gaugeFn = fn })
}

// Point is one series in a Snapshot. For histogram series Value is the
// observation count and Sum the sum of the observations.
type Point struct {
	Name   string
	Labels string // canonical `key="val",...` form, "" when unlabeled
	Type   string // "counter", "gauge" or "histogram"
	Value  float64
	Sum    time.Duration
	// Buckets holds the occupied cumulative buckets of an HDR series
	// ("histogram" type); nil otherwise.
	Buckets []HDRBucket
	// RawUnit marks HDR series recorded in raw units rather than
	// nanoseconds (bucket bounds and sum are exposed unscaled).
	RawUnit bool
}

// seriesSnapshot copies every series under the lock — its kind and value
// source as they are bound now, which a rebinding may change the moment the
// lock is released; value reads happen outside it so func-backed series may
// take their own locks.
func (r *Registry) seriesSnapshot() []series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]series, len(r.order))
	for i, s := range r.order {
		out[i] = *s
	}
	return out
}

// Snapshot reads every series and returns them sorted by name then
// label set.
func (r *Registry) Snapshot() []Point {
	sers := r.seriesSnapshot()
	out := make([]Point, 0, len(sers))
	for _, s := range sers {
		p := Point{Name: s.name, Labels: s.labels, Type: s.kind.typeName()}
		switch s.kind {
		case kindCounter:
			p.Value = float64(s.counter.Value())
		case kindCounterFunc:
			p.Value = float64(s.counterFn())
		case kindGauge:
			p.Value = float64(s.gauge.Value())
		case kindGaugeFunc:
			p.Value = s.gaugeFn()
		case kindHDR:
			p.Value = float64(s.hdr.Count())
			p.Sum = time.Duration(s.hdr.Sum())
			p.RawUnit = s.hdrRaw
			p.Buckets = s.hdr.Snapshot()
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// secs renders a nanosecond quantity as seconds in minimal float form.
func secs(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// formatValue renders a counter/gauge sample value.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Counters and gauges emit one sample per
// series; HDR series emit a classic histogram: cumulative _bucket samples
// plus _sum and _count, latencies in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	points := r.Snapshot()
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	var b strings.Builder
	lastName := ""
	for _, p := range points {
		if p.Name != lastName {
			if h := help[p.Name]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", p.Name, escapeHelp(h))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", p.Name, p.Type)
			lastName = p.Name
		}
		switch p.Type {
		case "histogram":
			scale := func(v int64) string { return secs(time.Duration(v)) }
			if p.RawUnit {
				scale = func(v int64) string {
					return strconv.FormatInt(v, 10)
				}
			}
			for _, bk := range p.Buckets {
				fmt.Fprintf(&b, "%s_bucket{%sle=\"%s\"} %d\n",
					p.Name, joinLabels(p.Labels), scale(bk.Upper), bk.Cum)
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %s\n",
				p.Name, joinLabels(p.Labels), formatValue(p.Value))
			if p.RawUnit {
				fmt.Fprintf(&b, "%s_sum%s %d\n", p.Name, wrapLabels(p.Labels), int64(p.Sum))
			} else {
				fmt.Fprintf(&b, "%s_sum%s %s\n", p.Name, wrapLabels(p.Labels), secs(p.Sum))
			}
			fmt.Fprintf(&b, "%s_count%s %s\n", p.Name, wrapLabels(p.Labels), formatValue(p.Value))
		default:
			fmt.Fprintf(&b, "%s%s %s\n", p.Name, wrapLabels(p.Labels), formatValue(p.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// wrapLabels renders a canonical label string as `{...}` or "".
func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// joinLabels renders a canonical label string as a prefix for an
// additional label (`a="b",` or "").
func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}
