// Package debugserver exposes the engine's observability surface over
// HTTP: Prometheus text metrics (/metrics), a liveness probe (/healthz),
// the standard net/http/pprof profiling handlers (/debug/pprof/) and one
// /debug/<name> route per registered telemetry Section — plus the client
// side of that route (Fetch, Poll) for the tools that read it.
// It is opt-in — binaries start it only when -debug-addr is given — and
// runs entirely off the hot path: scraping reads atomics, it never locks
// engine structures for longer than a counter read.
//
// docs/OBSERVABILITY.md documents every series served here.
package debugserver

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"
	"sync"
	"time"

	"streammine/internal/metrics"
)

// Server serves /metrics, /healthz, /debug/pprof/* and the registered
// sections on one listener.
type Server struct {
	reg      *metrics.Registry
	health   func() error
	srv      *http.Server
	ln       net.Listener
	mu       sync.Mutex
	degraded func() []string
	pressure func() string
	draining func() bool
	sections map[string]Section
}

// New builds a server over reg. health may be nil; when set it is polled
// by /healthz and a non-nil error turns the probe into a 503 with the
// error text in the body.
func New(reg *metrics.Registry, health func() error) *Server {
	s := &Server{reg: reg, health: health, sections: make(map[string]Section)}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/", s.handleSection)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// Start binds addr ("host:port"; ":0" picks a free port) and serves in
// the background. It returns the bound address, which differs from addr
// when the port was 0.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debugserver: listen %s: %w", addr, err)
	}
	s.ln = ln
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// SetDegraded installs a liveness-dependency probe: when fn returns a
// non-empty list of unreachable peers (e.g. a cluster worker whose
// coordinator heartbeats stopped, or a severed bridge), /healthz stays
// 200 — the process itself is alive — but reports "degraded: <peers>"
// instead of "ok" so operators and orchestrators can see partial failure.
func (s *Server) SetDegraded(fn func() []string) {
	s.mu.Lock()
	s.degraded = fn
	s.mu.Unlock()
}

// SetPressure installs a flow-control snapshot provider: its output (one
// line per congested element, or a JSON blob — the caller chooses) is
// appended to the /healthz body after the liveness line, so queue depth
// and credit state are visible from the same probe orchestrators already
// hit. Empty output appends nothing.
func (s *Server) SetPressure(fn func() string) {
	s.mu.Lock()
	s.pressure = fn
	s.mu.Unlock()
}

// SetDraining installs a graceful-shutdown probe: while fn returns true,
// /healthz answers 503 "draining" so load balancers and orchestrators
// stop routing new work here before the process exits. Draining takes
// precedence over the degraded and pressure annotations — a draining
// process wants traffic gone, not diagnosed.
func (s *Server) SetDraining(fn func() bool) {
	s.mu.Lock()
	s.draining = fn
	s.mu.Unlock()
}

// Section is one telemetry plane, served at /debug/<Name>: a snapshot
// for GET and, where the plane has one, an action for POST. A process
// registers each plane it runs exactly once; docs/OBSERVABILITY.md
// ("Sections") lists who registers what.
type Section struct {
	Name string
	// Get snapshots the plane. A result that encodes as JSON null — nil,
	// typed or not — answers 404 "no data yet", so scrapers can tell an
	// empty plane from one that is switched off; a string is served as
	// text/plain, anything else as indented JSON.
	Get func() any
	// Post, when set, applies the request's form parameters and returns
	// the outcome, rendered like Get's. An error means the parameters
	// were rejected and answers 400.
	Post func(url.Values) (any, error)
}

// Register mounts each section at /debug/<Name>, replacing any section
// of the same name. A name nothing registered answers 404 "not enabled".
func (s *Server) Register(secs ...Section) {
	s.mu.Lock()
	for _, sec := range secs {
		s.sections[sec.Name] = sec
	}
	s.mu.Unlock()
}

// handleSection is the one /debug/<name> handler: every section shares
// its method check, its two 404s and the {"error": ...} body.
func (s *Server) handleSection(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sec, ok := s.sections[strings.TrimPrefix(r.URL.Path, "/debug/")]
	s.mu.Unlock()
	if !ok {
		jsonError(w, http.StatusNotFound, "not enabled on this process")
		return
	}
	var v any
	switch {
	case r.Method == http.MethodGet || r.Method == "":
		v = sec.Get()
	case r.Method == http.MethodPost && sec.Post != nil:
		if err := r.ParseForm(); err != nil {
			jsonError(w, http.StatusBadRequest, "bad form: %v", err)
			return
		}
		var err error
		if v, err = sec.Post(r.Form); err != nil {
			jsonError(w, http.StatusBadRequest, "%v", err)
			return
		}
	case sec.Post != nil:
		jsonError(w, http.StatusMethodNotAllowed, "method %s not allowed; use GET or POST", r.Method)
		return
	default:
		jsonError(w, http.StatusMethodNotAllowed, "method %s not allowed; use GET", r.Method)
		return
	}
	if text, ok := v.(string); ok {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, text)
		return
	}
	// Encoding first makes "nothing to show" one test: nil and a typed nil
	// pointer, map or slice all encode as null, and none of them may be
	// served as a 200.
	body, err := json.MarshalIndent(v, "", "  ")
	switch {
	case err != nil:
		jsonError(w, http.StatusInternalServerError, "encode: %v", err)
	case string(body) == "null":
		jsonError(w, http.StatusNotFound, "no data yet")
	default:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(body, '\n'))
	}
}

// jsonError writes the uniform debug-endpoint error body: every
// /debug/* failure (404 route unset, 405 wrong method, 400 bad input)
// answers `{"error": "..."}` with an application/json Content-Type, so
// pollers parse one shape instead of sniffing plain-text bodies.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining != nil && draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.health != nil {
		if err := s.health(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	s.mu.Lock()
	degraded := s.degraded
	pressure := s.pressure
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	down := []string(nil)
	if degraded != nil {
		down = degraded()
	}
	if len(down) > 0 {
		fmt.Fprintf(w, "degraded: %s\n", strings.Join(down, ", "))
	} else {
		fmt.Fprintln(w, "ok")
	}
	if pressure != nil {
		if p := pressure(); p != "" {
			fmt.Fprintln(w, p)
		}
	}
}
