package ingest

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/metrics"
	"streammine/internal/metricstest"
)

// recordingEmitter is the engine stand-in for gateway unit tests: it
// remembers every emitted item and fabricates event identities the way a
// source node would (one contiguous sequence in emission order).
type recordingEmitter struct {
	mu    sync.Mutex
	items []core.BatchItem
	fail  error
}

func (r *recordingEmitter) EmitBatch(items []core.BatchItem) ([]event.Event, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return nil, r.fail
	}
	base := len(r.items)
	r.items = append(r.items, items...)
	out := make([]event.Event, len(items))
	for i := range items {
		out[i] = event.Event{ID: event.ID{Seq: event.Seq(base + i + 1)}}
	}
	return out, nil
}

func (r *recordingEmitter) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

func (r *recordingEmitter) keys() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, len(r.items))
	for i, it := range r.items {
		out[i] = it.Key
	}
	return out
}

// startTestServer runs a gateway on a loopback port with one recording
// stream named "src".
func startTestServer(t *testing.T, cfg Config) (*Server, *recordingEmitter) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	rec := &recordingEmitter{}
	if err := s.RegisterSource("src", rec, nil); err != nil {
		t.Fatal(err)
	}
	return s, rec
}

func sendN(t *testing.T, c *Client, from, n int) {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64(from + i), Payload: []byte(fmt.Sprintf("v%d", from+i))}
	}
	if err := c.Send(recs); err != nil {
		t.Fatal(err)
	}
}

func TestServerAckAndRetryDedup(t *testing.T) {
	s, rec := startTestServer(t, Config{})
	c := NewClient(s.Addr(), "src", ClientOptions{})
	defer c.Close()
	for i := 0; i < 3; i++ {
		sendN(t, c, i*10, 10)
	}
	if got := c.Acked(); got != 30 {
		t.Fatalf("acked %d, want 30", got)
	}
	if got := rec.count(); got != 30 {
		t.Fatalf("emitted %d records, want 30", got)
	}

	// A fresh client replays the client-side journal from seq 1 — the
	// retry-after-crash shape. Every record must dedup, none may re-emit.
	c2 := NewClient(s.Addr(), "src", ClientOptions{})
	defer c2.Close()
	for i := 0; i < 3; i++ {
		sendN(t, c2, i*10, 10)
	}
	if got := c2.Dups(); got != 30 {
		t.Fatalf("resend reported %d dups, want 30", got)
	}
	if got := rec.count(); got != 30 {
		t.Fatalf("resend re-emitted: %d records, want 30", got)
	}
	st := s.Stats()
	if st.Acked != 30 || st.Dedup != 30 {
		t.Fatalf("stats = %+v, want Acked=30 Dedup=30", st)
	}
}

func TestServerOverlapTrimmed(t *testing.T) {
	s, rec := startTestServer(t, Config{})
	c := NewClient(s.Addr(), "src", ClientOptions{})
	defer c.Close()
	sendN(t, c, 0, 4) // seqs 1..4 acknowledged

	// A partially acknowledged batch resent from seq 3: the overlap (3,4)
	// must be trimmed, the tail (5,6) admitted once.
	rc := dialRaw(t, s.Addr(), "", "src")
	defer rc.close()
	recs := []batchRecord{{Key: 102}, {Key: 103}, {Key: 104}, {Key: 105}}
	typ, body := rc.roundTrip(t, frameBatch, encodeBatch(3, recs))
	if typ != frameAck {
		t.Fatalf("overlap batch got frame %#x", typ)
	}
	through, dups, err := decodeAck(body)
	if err != nil {
		t.Fatal(err)
	}
	if through != 6 || dups != 2 {
		t.Fatalf("ack through=%d dups=%d, want through=6 dups=2", through, dups)
	}
	if got := rec.count(); got != 6 {
		t.Fatalf("emitted %d records, want 6", got)
	}
	// The admitted tail is the batch's own tail, not a re-emission of the
	// overlap.
	keys := rec.keys()
	if keys[4] != 104 || keys[5] != 105 {
		t.Fatalf("tail keys = %v, want [.. 104 105]", keys)
	}
}

func TestServerSequenceGapFatal(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	rc := dialRaw(t, s.Addr(), "", "src")
	defer rc.close()
	typ, body := rc.roundTrip(t, frameBatch, encodeBatch(5, []batchRecord{{Key: 1}}))
	if typ != frameErr {
		t.Fatalf("gap batch got frame %#x, want ERR", typ)
	}
	code, msg, err := decodeErr(body)
	if err != nil {
		t.Fatal(err)
	}
	if code != codeGap || !strings.Contains(msg, "seq 5") {
		t.Fatalf("gap verdict code=%d msg=%q", code, msg)
	}
}

// TestServerOpenModePerTokenTenants: an open gateway must give
// concurrent producers independent sequence spaces keyed by their
// presented token — a shared tenant would interleave them in one space
// and dedup their records against each other.
func TestServerOpenModePerTokenTenants(t *testing.T) {
	reg := metrics.NewRegistry()
	s, rec := startTestServer(t, Config{Registry: reg})

	alice := NewClient(s.Addr(), "src", ClientOptions{Token: "alice"})
	defer alice.Close()
	bob := NewClient(s.Addr(), "src", ClientOptions{Token: "bob"})
	defer bob.Close()
	sendN(t, alice, 0, 5)
	sendN(t, bob, 100, 5)
	if alice.Dups() != 0 || bob.Dups() != 0 {
		t.Fatalf("open-mode producers deduped each other: alice dups=%d, bob dups=%d", alice.Dups(), bob.Dups())
	}
	if got := rec.count(); got != 10 {
		t.Fatalf("emitted %d records, want 10", got)
	}
	for _, tenant := range []string{"alice", "bob"} {
		if v, ok := metricstest.Value(reg, "ingest_acked_total", metrics.Labels{"tenant": tenant}); !ok || v != 5 {
			t.Fatalf("ingest_acked_total{tenant=%s} = %v (present=%v), want 5", tenant, v, ok)
		}
	}

	// No token still maps to the shared "default" tenant.
	anon := NewClient(s.Addr(), "src", ClientOptions{})
	defer anon.Close()
	sendN(t, anon, 200, 3)
	if v, ok := metricstest.Value(reg, "ingest_acked_total", metrics.Labels{"tenant": "default"}); !ok || v != 3 {
		t.Fatalf("ingest_acked_total{tenant=default} = %v (present=%v), want 3", v, ok)
	}
}

func TestServerAuth(t *testing.T) {
	tenants := []TenantConfig{{Name: "acme", Token: "tok-acme"}}
	s, _ := startTestServer(t, Config{Tenants: tenants})

	bad := NewClient(s.Addr(), "src", ClientOptions{Token: "wrong"})
	defer bad.Close()
	err := bad.Send([]Record{{Key: 1}})
	if err == nil || !strings.Contains(err.Error(), "unknown token") {
		t.Fatalf("bad token error = %v", err)
	}

	good := NewClient(s.Addr(), "src", ClientOptions{Token: "tok-acme"})
	defer good.Close()
	if err := good.Send([]Record{{Key: 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestServerBatchQuota(t *testing.T) {
	tenants := []TenantConfig{{Name: "acme", Token: "tok", MaxBatch: 2}}
	s, _ := startTestServer(t, Config{Tenants: tenants})
	rc := dialRaw(t, s.Addr(), "tok", "src")
	defer rc.close()
	typ, body := rc.roundTrip(t, frameBatch,
		encodeBatch(1, []batchRecord{{Key: 1}, {Key: 2}, {Key: 3}}))
	if typ != frameErr {
		t.Fatalf("over-quota batch got frame %#x, want ERR", typ)
	}
	code, _, err := decodeErr(body)
	if err != nil {
		t.Fatal(err)
	}
	if code != codeBad {
		t.Fatalf("over-quota code = %d, want %d", code, codeBad)
	}
}

func TestServerTenantRateQuota(t *testing.T) {
	// Rate 1/s with burst 1: the first batch rides the full-bucket grace
	// the token bucket grants oversized takes, which leaves the bucket
	// deep in debt — the second batch must get a retryable RETRY naming
	// the quota, never an ERR, and count as shed in ingest_shed_total.
	reg := metrics.NewRegistry()
	tenants := []TenantConfig{{Name: "acme", Token: "tok", Rate: 1, Burst: 1}}
	s, rec := startTestServer(t, Config{Tenants: tenants, Registry: reg})
	rc := dialRaw(t, s.Addr(), "tok", "src")
	defer rc.close()
	typ, _ := rc.roundTrip(t, frameBatch,
		encodeBatch(1, []batchRecord{{Key: 1}, {Key: 2}, {Key: 3}}))
	if typ != frameAck {
		t.Fatalf("first batch got frame %#x, want ACK (full-bucket grace)", typ)
	}
	typ, body := rc.roundTrip(t, frameBatch,
		encodeBatch(4, []batchRecord{{Key: 4}, {Key: 5}, {Key: 6}}))
	if typ != frameRetry {
		t.Fatalf("over-rate batch got frame %#x, want RETRY", typ)
	}
	after, reason, err := decodeRetry(body)
	if err != nil {
		t.Fatal(err)
	}
	if after == 0 || !strings.Contains(reason, "quota") {
		t.Fatalf("retry after=%dms reason=%q", after, reason)
	}
	if got := rec.count(); got != 3 {
		t.Fatalf("emitted %d records, want only the first batch's 3", got)
	}
	v, ok := metricstest.Value(reg, "ingest_shed_total", metrics.Labels{"tenant": "acme", "reason": "tenant_rate"})
	if !ok || v != 3 {
		t.Fatalf("ingest_shed_total{tenant=acme,reason=tenant_rate} = %v (ok=%v), want 3", v, ok)
	}
}

func TestServerUnknownStreamRetries(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	rc := dialRaw(t, s.Addr(), "", "nosuch")
	defer rc.close()
	typ, body := rc.roundTrip(t, frameBatch, encodeBatch(1, []batchRecord{{Key: 1}}))
	if typ != frameRetry {
		t.Fatalf("unknown stream got frame %#x, want RETRY", typ)
	}
	_, reason, err := decodeRetry(body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reason, "unavailable") {
		t.Fatalf("reason = %q", reason)
	}
}

func TestServerDrain(t *testing.T) {
	s, rec := startTestServer(t, Config{})
	c := NewClient(s.Addr(), "src", ClientOptions{})
	defer c.Close()
	sendN(t, c, 0, 5)
	s.Drain(time.Second)
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	rc := dialRaw(t, s.Addr(), "", "src")
	defer rc.close()
	typ, body := rc.roundTrip(t, frameBatch, encodeBatch(6, []batchRecord{{Key: 6}}))
	if typ != frameRetry {
		t.Fatalf("batch during drain got frame %#x, want RETRY", typ)
	}
	_, reason, err := decodeRetry(body)
	if err != nil {
		t.Fatal(err)
	}
	if reason != "draining" {
		t.Fatalf("reason = %q, want draining", reason)
	}
	if got := rec.count(); got != 5 {
		t.Fatalf("drain admitted new records: %d, want 5", got)
	}
}

func TestHTTPLane(t *testing.T) {
	tenants := []TenantConfig{{Name: "acme", Token: "tok"}}
	s, rec := startTestServer(t, Config{Tenants: tenants})
	base := "http://" + s.Addr()
	post := func(path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader("payload"))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("/v1/ingest/src?seq=1&key=9", "tok"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST status %d", resp.StatusCode)
	} else {
		body, _ := io.ReadAll(resp.Body)
		if strings.TrimSpace(string(body)) != `{"through":1,"dups":0}` {
			t.Fatalf("first POST body %q", body)
		}
	}
	// A curl retry of the same seq is absorbed idempotently.
	if resp := post("/v1/ingest/src?seq=1&key=9", "tok"); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry POST status %d", resp.StatusCode)
	} else {
		body, _ := io.ReadAll(resp.Body)
		if strings.TrimSpace(string(body)) != `{"through":1,"dups":1}` {
			t.Fatalf("retry POST body %q", body)
		}
	}
	if got := rec.count(); got != 1 {
		t.Fatalf("HTTP retry re-emitted: %d records, want 1", got)
	}
	if resp := post("/v1/ingest/src?seq=7", "tok"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("gap POST status %d, want 409", resp.StatusCode)
	}
	if resp := post("/v1/ingest/src?seq=2", "nope"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad-token POST status %d, want 401", resp.StatusCode)
	}
	if resp := post("/v1/ingest/src?seq=0", "tok"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("seq=0 POST status %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/ingest/nosuch?seq=1", "tok"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("unknown-stream POST status %d, want 429", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestHTTPHealthzDraining(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	base := "http://" + s.Addr()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	s.Drain(time.Second)
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	// Drained HTTP writes get 429 + Retry-After, steering producers away.
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/ingest/src?seq=1", strings.NewReader("x"))
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusTooManyRequests || wresp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining POST status %d Retry-After %q", wresp.StatusCode, wresp.Header.Get("Retry-After"))
	}
}

// TestTenantFairnessUnderFlood is the fairness regression: one tenant
// hammering its quota into constant sheds must not cause a single shed —
// or even a single retry — for a well-behaved tenant on the same stream.
func TestTenantFairnessUnderFlood(t *testing.T) {
	reg := metrics.NewRegistry()
	tenants := []TenantConfig{
		{Name: "good", Token: "tok-good", Rate: 100000, Burst: 1000},
		{Name: "flood", Token: "tok-flood", Rate: 200, Burst: 20},
	}
	s, _ := startTestServer(t, Config{Tenants: tenants, Registry: reg})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// The flood tenant offers far beyond its 200/s quota and hammers
		// retries with minimal backoff.
		defer wg.Done()
		fc := NewClient(s.Addr(), "src", ClientOptions{Token: "tok-flood", Backoff: time.Millisecond})
		defer fc.Close()
		recs := make([]Record, 20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range recs {
				recs[i] = Record{Key: uint64(i)}
			}
			if err := fc.Send(recs); err != nil {
				return
			}
		}
	}()

	gc := NewClient(s.Addr(), "src", ClientOptions{Token: "tok-good"})
	defer gc.Close()
	for i := 0; i < 40; i++ {
		sendN(t, gc, i*5, 5)
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := gc.Acked(); got != 200 {
		t.Fatalf("good tenant acked %d of 200", got)
	}
	if got := gc.Retries(); got != 0 {
		t.Fatalf("good tenant needed %d retries while flooded; quotas leaked across tenants", got)
	}
	if v, _ := metricstest.Value(reg, "ingest_shed_total", metrics.Labels{"tenant": "good", "reason": "tenant_rate"}); v != 0 {
		t.Fatalf("good tenant shed %v records", v)
	}
	if v, _ := metricstest.Value(reg, "ingest_shed_total", metrics.Labels{"tenant": "flood", "reason": "tenant_rate"}); v == 0 {
		t.Fatal("flood tenant never shed; the flood did not exercise the quota")
	}
}

func TestServerPoisonsStreamOnEmitFailure(t *testing.T) {
	s, rec := startTestServer(t, Config{})
	c := NewClient(s.Addr(), "src", ClientOptions{})
	defer c.Close()
	sendN(t, c, 0, 2)
	rec.mu.Lock()
	rec.fail = fmt.Errorf("disk on fire")
	rec.mu.Unlock()

	rc := dialRaw(t, s.Addr(), "", "src")
	defer rc.close()
	typ, _ := rc.roundTrip(t, frameBatch, encodeBatch(3, []batchRecord{{Key: 3}}))
	if typ != frameErr {
		t.Fatalf("emit failure got frame %#x, want ERR", typ)
	}
	// Fail-stop: the stream must refuse everything afterwards, even
	// batches the emitter could now handle, because the failed batch's
	// floor already advanced.
	rec.mu.Lock()
	rec.fail = nil
	rec.mu.Unlock()
	rc2 := dialRaw(t, s.Addr(), "", "src")
	defer rc2.close()
	typ, body := rc2.roundTrip(t, frameBatch, encodeBatch(4, []batchRecord{{Key: 4}}))
	if typ != frameErr {
		t.Fatalf("poisoned stream answered frame %#x, want ERR", typ)
	}
	code, _, err := decodeErr(body)
	if err != nil {
		t.Fatal(err)
	}
	if code != codeInternal {
		t.Fatalf("poisoned stream code = %d, want %d", code, codeInternal)
	}
}

// TestIngestMetricInventoryDocumented mirrors the batch_*/profiler
// inventory checks: every ingest_* series the gateway registers must be
// documented in docs/INGEST.md.
func TestIngestMetricInventoryDocumented(t *testing.T) {
	reg := metrics.NewRegistry()
	tenants := []TenantConfig{{Name: "acme", Token: "tok", Rate: 100}}
	s, _ := startTestServer(t, Config{Tenants: tenants, Registry: reg})
	c := NewClient(s.Addr(), "src", ClientOptions{Token: "tok"})
	defer c.Close()
	sendN(t, c, 0, 3)
	metricstest.Documented(t, reg, "ingest_", "INGEST.md", 1)
}

// rawConn speaks the binary protocol directly, for observing single
// verdicts the retrying Client hides.
type rawConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dialRaw(t *testing.T, addr, token, stream string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
	if _, err := rc.w.WriteString(magic); err != nil {
		t.Fatal(err)
	}
	typ, _ := rc.roundTrip(t, frameHello, encodeHello(token, stream))
	if typ != frameHelloOK {
		t.Fatalf("hello got frame %#x", typ)
	}
	return rc
}

func (rc *rawConn) roundTrip(t *testing.T, typ byte, body []byte) (byte, []byte) {
	t.Helper()
	if err := writeFrame(rc.w, typ, body); err != nil {
		t.Fatal(err)
	}
	if err := rc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	rtyp, rbody, err := readFrame(rc.r)
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, rbody
}

func (rc *rawConn) close() { _ = rc.c.Close() }
