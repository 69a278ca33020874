// Package ingest is the multi-tenant network gateway that turns outside
// producers into first-class sources of the precise-recovery engine.
//
// Records arrive over a single listening port that serves two lanes — a
// length-prefixed binary protocol (proto.go) and a plain-HTTP POST lane —
// demultiplexed by the first bytes of each connection. Every accepted
// batch runs the same edge pipeline, in this order and under one
// per-stream mutex so admission order, log order and emission order
// coincide:
//
//  1. tenant-scoped dedup: each tenant assigns contiguous 1-based
//     sequences per stream; batches at or below the floor are
//     acknowledged idempotently, batches past the floor are rejected as
//     gaps, overlapping prefixes are trimmed;
//  2. per-tenant token-bucket quota (429/RETRY with a Retry-After
//     derived from the bucket's refill wait);
//  3. the engine's own admission controller — the PR-3 token-bucket +
//     AIMD machinery, detached from the source node via
//     core.DetachSourceAdmission so the decision happens *before* the
//     durable admission log: a shed record is never logged and is
//     therefore invisible to recovery by construction, while a blocking
//     (non-shed) controller simply stalls the connection, which maps to
//     TCP pushback on the producer;
//  4. append to the per-stream admission log (log.go);
//  5. hand the batch to the engine through SourceHandle.EmitBatch once
//     the log write is stable.
//
// The ACK is sent only after both the log write is stable and the batch
// has been emitted, so an acknowledged record survives a worker crash:
// on restart the gateway re-emits the log in order, reproducing the
// exact pre-crash event identities, and the engine's downstream dedup
// absorbs whatever had already committed.
package ingest

import (
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/metrics"
)

// Emitter is the engine-side sink for admitted batches. *core.SourceHandle
// implements it; tests substitute recorders.
type Emitter interface {
	EmitBatch(items []core.BatchItem) ([]event.Event, error)
}

var _ Emitter = (*core.SourceHandle)(nil)

// TenantConfig declares one tenant: its auth token, its sustained-rate
// quota, and its per-batch size quota.
type TenantConfig struct {
	// Name labels the tenant in metrics and in the admission log.
	Name string `json:"name"`
	// Token is the static bearer token presented in HELLO frames and
	// Authorization headers. Required when any tenants are configured.
	Token string `json:"token"`
	// Rate is the tenant's sustained admission quota in records/second.
	// Zero means unlimited.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the quota bucket depth; defaults to max(1, Rate/10).
	Burst int `json:"burst,omitempty"`
	// MaxBatch bounds records per request; defaults to 1024.
	MaxBatch int `json:"maxBatch,omitempty"`
}

// LoadTenants reads a JSON array of TenantConfig from path.
func LoadTenants(path string) ([]TenantConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []TenantConfig
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("parse tenants %s: %w", path, err)
	}
	for i, t := range out {
		if t.Name == "" {
			return nil, fmt.Errorf("parse tenants %s: entry %d has no name", path, i)
		}
		if t.Token == "" {
			return nil, fmt.Errorf("parse tenants %s: tenant %q has no token", path, t.Name)
		}
	}
	return out, nil
}

// Config configures a gateway server.
type Config struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// StateDir holds one admission-log directory per stream. Empty keeps
	// the logs in memory (tests, benchmarks): nothing is recoverable.
	StateDir string
	// Tenants lists the accepted tenants. Empty runs the gateway open:
	// any token is accepted, each distinct token gets its own unlimited
	// tenant (empty token maps to "default").
	Tenants []TenantConfig
	// TLSCert/TLSKey, when both set, wrap the listener in TLS (both
	// lanes; the binary protocol runs inside the TLS stream).
	TLSCert, TLSKey string
	// Registry receives the ingest_* metrics; nil uses a private one.
	Registry *metrics.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// defaultMaxBatch bounds records per request for tenants that don't set
// their own quota.
const defaultMaxBatch = 1024

// tenant is the runtime state for one configured tenant.
type tenant struct {
	name     string
	token    string
	bucket   *flow.TokenBucket // nil = unlimited
	maxBatch int

	mu     sync.Mutex
	floors map[string]uint64 // stream → highest contiguous acked seq

	mAccepted, mAdmitted, mDedup, mAcked *metrics.Counter
	mShedRate, mShedEngine, mShedDrain   *metrics.Counter
}

func (t *tenant) floor(stream string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.floors[stream]
}

func (t *tenant) setFloor(stream string, seq uint64) {
	t.mu.Lock()
	if seq > t.floors[stream] {
		t.floors[stream] = seq
	}
	t.mu.Unlock()
}

// pending is one admitted batch in flight between the admission decision
// and its ACK: stable fires when the log write is durable, acked when
// the batch has additionally been emitted into the engine.
type pending struct {
	items  []core.BatchItem
	stable chan error
	acked  chan error
}

// stream is one registered engine source.
type stream struct {
	name string
	em   Emitter
	adm  *flow.Admission // detached engine admission; nil = none
	log  *admLog

	// mu serializes the admission decision, the log append and the emit
	// enqueue, so all three share one order.
	mu       sync.Mutex
	poisoned error

	emitQ chan *pending
	stopc chan struct{}
	once  sync.Once
}

var errStreamClosed = fmt.Errorf("ingest: stream closed")

// emitLoop drains admitted batches in admission order: wait for the log
// write to be stable, emit into the engine, release the ACK.
func (st *stream) emitLoop() {
	for {
		select {
		case <-st.stopc:
			return
		case p := <-st.emitQ:
			var err error
			select {
			case err = <-p.stable:
			case <-st.stopc:
				p.acked <- errStreamClosed
				return
			}
			if err == nil {
				_, err = st.em.EmitBatch(p.items)
			}
			p.acked <- err
		}
	}
}

// close stops the stream, failing any batches still queued. The gateway
// owns the detached admission controller, so it is closed here.
func (st *stream) close() {
	st.once.Do(func() {
		close(st.stopc)
		st.adm.Close()
		for {
			select {
			case p := <-st.emitQ:
				p.acked <- errStreamClosed
			default:
				st.log.close()
				return
			}
		}
	})
}

// Stats is a snapshot of the server-wide record counters.
type Stats struct {
	Accepted uint64 // records received in well-formed batches
	Admitted uint64 // records past dedup, quotas and engine admission
	Shed     uint64 // records rejected by quota, engine shed, or drain
	Dedup    uint64 // duplicate records absorbed idempotently
	Acked    uint64 // records durably logged, emitted and acknowledged
}

// Server is a running ingest gateway.
type Server struct {
	cfg  Config
	reg  *metrics.Registry
	logf func(string, ...any)

	ln      net.Listener
	httpLn  *chanListener
	httpSrv *http.Server

	mu      sync.Mutex
	open    bool // no tenants configured: open mode
	tenants map[string]*tenant
	byToken map[string]*tenant
	streams map[string]*stream
	conns   map[net.Conn]struct{}
	closed  bool

	draining atomic.Bool
	inflight sync.WaitGroup
	wg       sync.WaitGroup

	mConns    *metrics.Gauge
	mStreams  *metrics.Gauge
	mDraining *metrics.Gauge
	admitHDR  *metrics.HDR

	accepted, admitted, shed, dedup, acked atomic.Uint64
}

// Start listens on cfg.Addr and serves both ingest lanes.
func Start(cfg Config) (*Server, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		logf:    logf,
		open:    len(cfg.Tenants) == 0,
		tenants: make(map[string]*tenant),
		byToken: make(map[string]*tenant),
		streams: make(map[string]*stream),
		conns:   make(map[net.Conn]struct{}),
	}
	s.mConns = reg.Gauge("ingest_connections",
		"Open ingest connections (binary lane).")
	s.mStreams = reg.Gauge("ingest_streams",
		"Engine sources registered with the ingest gateway.")
	s.mDraining = reg.Gauge("ingest_draining",
		"1 while the gateway is draining (rejecting new batches).")
	s.admitHDR = reg.HDR("ingest_admit_latency",
		"Accept-to-ACK latency per batch: dedup, quotas, engine admission, stable admission-log write, and engine emission.")
	for _, tc := range cfg.Tenants {
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("ingest: duplicate tenant %q", tc.Name)
		}
		if _, dup := s.byToken[tc.Token]; dup {
			return nil, fmt.Errorf("ingest: tenant %q reuses another tenant's token", tc.Name)
		}
		t := s.newTenant(tc)
		s.tenants[tc.Name] = t
		s.byToken[tc.Token] = t
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", cfg.Addr, err)
	}
	if cfg.TLSCert != "" || cfg.TLSKey != "" {
		cert, err := tls.LoadX509KeyPair(cfg.TLSCert, cfg.TLSKey)
		if err != nil {
			_ = ln.Close()
			return nil, fmt.Errorf("ingest: load TLS keypair: %w", err)
		}
		ln = tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}})
	}
	s.ln = ln
	s.httpLn = newChanListener(ln.Addr())
	s.httpSrv = &http.Server{Handler: s.httpHandler()}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		_ = s.httpSrv.Serve(s.httpLn)
	}()
	go s.acceptLoop()
	return s, nil
}

func (s *Server) newTenant(tc TenantConfig) *tenant {
	t := &tenant{
		name:     tc.Name,
		token:    tc.Token,
		maxBatch: tc.MaxBatch,
		floors:   make(map[string]uint64),
	}
	if t.maxBatch <= 0 {
		t.maxBatch = defaultMaxBatch
	}
	if tc.Rate > 0 {
		burst := tc.Burst
		if burst <= 0 {
			burst = int(tc.Rate / 10)
			if burst < 1 {
				burst = 1
			}
		}
		t.bucket = flow.NewTokenBucket(tc.Rate, burst)
	}
	lbl := metrics.Labels{"tenant": tc.Name}
	t.mAccepted = s.reg.CounterWith("ingest_accepted_total",
		"Records received in well-formed batches, per tenant.", lbl)
	t.mAdmitted = s.reg.CounterWith("ingest_admitted_total",
		"Records admitted past dedup, quotas and engine admission, per tenant.", lbl)
	t.mDedup = s.reg.CounterWith("ingest_dedup_total",
		"Duplicate records absorbed idempotently, per tenant.", lbl)
	t.mAcked = s.reg.CounterWith("ingest_acked_total",
		"Records durably logged, emitted and acknowledged, per tenant.", lbl)
	shedHelp := "Records rejected at the edge, per tenant and reason."
	t.mShedRate = s.reg.CounterWith("ingest_shed_total", shedHelp,
		metrics.Labels{"tenant": tc.Name, "reason": "tenant_rate"})
	t.mShedEngine = s.reg.CounterWith("ingest_shed_total", shedHelp,
		metrics.Labels{"tenant": tc.Name, "reason": "engine"})
	t.mShedDrain = s.reg.CounterWith("ingest_shed_total", shedHelp,
		metrics.Labels{"tenant": tc.Name, "reason": "draining"})
	return t
}

// tenantForNameLocked resolves (or creates) a tenant by name. Created
// tenants have no token — they exist so admission-log recovery can
// rebuild sequence floors for tenants that have since left the config,
// keeping retried duplicates deduplicated even across a config change.
func (s *Server) tenantForNameLocked(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := s.newTenant(TenantConfig{Name: name})
	s.tenants[name] = t
	return t
}

// authenticate maps a presented token to its tenant (nil = reject). In
// open mode every token is accepted and each distinct token gets its own
// unlimited tenant named after it (empty token maps to "default") —
// concurrent producers sharing one tenant would interleave in a single
// sequence space and dedup each other's records, so open mode trusts the
// token as the producer's identity instead.
func (s *Server) authenticate(token string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.open {
		if token == "" {
			return s.tenantForNameLocked("default")
		}
		return s.tenantForNameLocked(token)
	}
	return s.byToken[token]
}

func (s *Server) lookupStream(name string) *stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[name]
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the server-wide record counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted: s.accepted.Load(),
		Admitted: s.admitted.Load(),
		Shed:     s.shed.Load(),
		Dedup:    s.dedup.Load(),
		Acked:    s.acked.Load(),
	}
}

// AdmitLatency exposes the accept-to-ACK latency histogram.
func (s *Server) AdmitLatency() *metrics.HDR { return s.admitHDR }

// replayChunk bounds one EmitBatch call during recovery replay.
const replayChunk = 256

// sanitizeDir maps a stream name to a filesystem-safe directory name.
func sanitizeDir(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// RegisterSource attaches an engine source to the gateway under the
// given stream name. em receives admitted batches (normally the source's
// *core.SourceHandle); adm is the admission controller detached from the
// source node via core.DetachSourceAdmission (nil when the node has no
// flow limits) — the gateway takes ownership and closes it.
//
// If the stream's admission log already holds records from a previous
// run, they are re-emitted through em in log order *before* the stream
// starts accepting network batches, so the fresh engine assigns them the
// same event identities as the crashed run, and the per-tenant sequence
// floors are rebuilt so client retries of acknowledged records
// deduplicate instead of duplicating.
func (s *Server) RegisterSource(name string, em Emitter, adm *flow.Admission) error {
	dir := ""
	if s.cfg.StateDir != "" {
		dir = filepath.Join(s.cfg.StateDir, sanitizeDir(name))
	}
	lg, recovered, err := openAdmLog(dir)
	if err != nil {
		return fmt.Errorf("ingest: open admission log for %q: %w", name, err)
	}
	for i := 0; i < len(recovered); i += replayChunk {
		j := i + replayChunk
		if j > len(recovered) {
			j = len(recovered)
		}
		items := make([]core.BatchItem, j-i)
		for k, e := range recovered[i:j] {
			items[k] = core.BatchItem{Key: e.Key, Payload: e.Payload}
		}
		if _, err := em.EmitBatch(items); err != nil {
			lg.close()
			return fmt.Errorf("ingest: replay %q: %w", name, err)
		}
	}
	st := &stream{
		name:  name,
		em:    em,
		adm:   adm,
		log:   lg,
		emitQ: make(chan *pending, 256),
		stopc: make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		st.close()
		return fmt.Errorf("ingest: server closed")
	}
	if _, dup := s.streams[name]; dup {
		s.mu.Unlock()
		st.close()
		return fmt.Errorf("ingest: stream %q already registered", name)
	}
	for _, e := range recovered {
		s.tenantForNameLocked(e.Tenant).setFloor(name, e.Seq)
	}
	s.streams[name] = st
	s.mu.Unlock()
	s.mStreams.Inc()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		st.emitLoop()
	}()
	if len(recovered) > 0 {
		s.logf("ingest: stream %q replayed %d admitted records from %s", name, len(recovered), dir)
	}
	return nil
}

// verdict is the outcome of processing one batch, rendered as a frame on
// the binary lane or a status code on the HTTP lane.
type verdict struct {
	kind        byte // frameAck, frameRetry or frameErr
	through     uint64
	dups        int
	afterMillis uint64
	reason      string
	code        uint64
	msg         string
}

func retryVerdict(afterMillis uint64, reason string) verdict {
	if afterMillis == 0 {
		afterMillis = 1
	}
	return verdict{kind: frameRetry, afterMillis: afterMillis, reason: reason}
}

// process runs one batch through the edge pipeline. It may block — on
// the tenant's behalf in a non-shedding engine admission controller, and
// on the stable log write — which is exactly the connection-level
// backpressure the protocol maps to TCP pushback / HTTP latency.
func (s *Server) process(t *tenant, st *stream, firstSeq uint64, recs []batchRecord, accepted time.Time) verdict {
	s.inflight.Add(1)
	defer s.inflight.Done()
	n := len(recs)
	t.mAccepted.Add(uint64(n))
	s.accepted.Add(uint64(n))
	if s.draining.Load() {
		t.mShedDrain.Add(uint64(n))
		s.shed.Add(uint64(n))
		return retryVerdict(1000, "draining")
	}

	st.mu.Lock()
	if err := st.poisoned; err != nil {
		st.mu.Unlock()
		return verdict{kind: frameErr, code: codeInternal, msg: "stream failed: " + err.Error()}
	}
	last := t.floor(st.name)
	end := firstSeq + uint64(n) - 1
	if end <= last { // full duplicate: a retry of an acknowledged batch
		st.mu.Unlock()
		t.mDedup.Add(uint64(n))
		s.dedup.Add(uint64(n))
		return verdict{kind: frameAck, through: end, dups: n}
	}
	if firstSeq > last+1 {
		st.mu.Unlock()
		return verdict{kind: frameErr, code: codeGap,
			msg: fmt.Sprintf("batch starts at seq %d but tenant %q is at %d", firstSeq, t.name, last)}
	}
	dups := int(last + 1 - firstSeq) // overlapping prefix, already durable
	if dups > 0 {
		recs = recs[dups:]
		n = len(recs)
		t.mDedup.Add(uint64(dups))
		s.dedup.Add(uint64(dups))
	}

	if t.bucket != nil {
		ok, wait := t.bucket.TakeN(time.Now(), n)
		if !ok {
			st.mu.Unlock()
			t.mShedRate.Add(uint64(n))
			s.shed.Add(uint64(n))
			return retryVerdict(uint64(wait/time.Millisecond)+1, "tenant rate quota")
		}
	}
	if st.adm != nil {
		switch st.adm.AdmitN(n) {
		case flow.Shed:
			st.mu.Unlock()
			t.mShedEngine.Add(uint64(n))
			s.shed.Add(uint64(n))
			return retryVerdict(50, "engine shed")
		case flow.Stopped:
			st.mu.Unlock()
			t.mShedDrain.Add(uint64(n))
			s.shed.Add(uint64(n))
			return retryVerdict(1000, "draining")
		}
	}

	t.setFloor(st.name, end)
	entries := make([]logEntry, n)
	items := make([]core.BatchItem, n)
	base := end - uint64(n) + 1
	for i, r := range recs {
		entries[i] = logEntry{Tenant: t.name, Seq: base + uint64(i), Key: r.Key, Payload: r.Payload}
		items[i] = core.BatchItem{Key: r.Key, Payload: r.Payload}
	}
	p := &pending{items: items, stable: make(chan error, 1), acked: make(chan error, 1)}
	if err := st.log.append(entries, func(err error) { p.stable <- err }); err != nil {
		st.poisoned = err
		st.mu.Unlock()
		s.logf("ingest: stream %q admission log failed: %v", st.name, err)
		return verdict{kind: frameErr, code: codeInternal, msg: "admission log unavailable"}
	}
	select {
	case st.emitQ <- p:
	case <-st.stopc:
		st.mu.Unlock()
		return retryVerdict(1000, "stream closing")
	}
	st.mu.Unlock()
	t.mAdmitted.Add(uint64(n))
	s.admitted.Add(uint64(n))

	if err := <-p.acked; err != nil {
		st.mu.Lock()
		if st.poisoned == nil && err != errStreamClosed {
			// Fail-stop: the floor already covers these records, so no
			// later ACK may claim durability this stream cannot provide.
			st.poisoned = err
		}
		st.mu.Unlock()
		if err == errStreamClosed {
			return retryVerdict(1000, "stream closing")
		}
		s.logf("ingest: stream %q failed: %v", st.name, err)
		return verdict{kind: frameErr, code: codeInternal, msg: "stream failed: " + err.Error()}
	}
	t.mAcked.Add(uint64(n))
	s.acked.Add(uint64(n))
	s.admitHDR.Record(time.Since(accepted))
	return verdict{kind: frameAck, through: end, dups: dups}
}

// Draining reports whether the gateway is refusing new batches. Wired
// into the debug server's /healthz so load balancers stop routing here.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain puts the gateway into draining mode — new batches get retryable
// "draining" verdicts pointing producers elsewhere — and waits up to
// timeout for in-flight batches to finish their log writes and ACKs.
func (s *Server) Drain(timeout time.Duration) {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.mDraining.Set(1)
	s.logf("ingest: draining")
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.logf("ingest: drain timed out after %v", timeout)
	}
}

// Close stops the listener, all connections and all streams. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.streams = make(map[string]*stream)
	s.mu.Unlock()

	_ = s.ln.Close()
	_ = s.httpSrv.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, st := range streams {
		st.close()
	}
	s.wg.Wait()
	return nil
}

// trackConn registers a live binary-lane connection; returns false when
// the server is already closed.
func (s *Server) trackConn(c net.Conn, add bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.closed {
			return false
		}
		s.conns[c] = struct{}{}
		s.mConns.Inc()
		return true
	}
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		s.mConns.Dec()
	}
	return true
}
