package operator

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"streammine/internal/detrand"
	"streammine/internal/event"
	"streammine/internal/stm"
)

// emitted is one captured output.
type emitted struct {
	port    int
	ts      int64
	key     uint64
	payload []byte
}

// testHarness drives an operator the way the engine does: one committed
// transaction per event, a seeded PRNG, a manual clock.
type testHarness struct {
	t   *testing.T
	mem *stm.Memory
	op  Operator
	src *detrand.Source
	now int64
	ts  int64

	outs []emitted
	// handed holds each emitted payload as the operator handed it over —
	// outs holds a copy taken at that moment — so a test can tell whether
	// an operator wrote to a buffer after emitting it.
	handed [][]byte
}

type testInitCtx struct{ mem *stm.Memory }

func (c testInitCtx) Memory() *stm.Memory { return c.mem }
func (c testInitCtx) OperatorID() uint32  { return 1 }

type testProcCtx struct {
	h     *testHarness
	tx    *stm.Tx
	input int
	ts    int64
}

func (c *testProcCtx) OperatorID() uint32 { return 1 }
func (c *testProcCtx) InputIndex() int    { return c.input }
func (c *testProcCtx) Tx() *stm.Tx        { return c.tx }
func (c *testProcCtx) Random() (uint64, error) {
	return c.h.src.Uint64(), nil
}
func (c *testProcCtx) Now() (int64, error) { return c.h.now, nil }
func (c *testProcCtx) Emit(key uint64, payload []byte) error {
	return c.EmitTo(0, key, payload)
}
func (c *testProcCtx) EmitTo(port int, key uint64, payload []byte) error {
	c.h.outs = append(c.h.outs, emitted{port: port, ts: c.ts, key: key, payload: append([]byte(nil), payload...)})
	c.h.handed = append(c.h.handed, payload)
	return nil
}
func (c *testProcCtx) EmitAt(ts int64, key uint64, payload []byte) error {
	c.h.outs = append(c.h.outs, emitted{port: 0, ts: ts, key: key, payload: append([]byte(nil), payload...)})
	c.h.handed = append(c.h.handed, payload)
	return nil
}
func (c *testProcCtx) Payload(n int) []byte { return make([]byte, n) }

func newHarness(t *testing.T, op Operator, stateWords int) *testHarness {
	t.Helper()
	capWords := stateWords + 8
	h := &testHarness{t: t, mem: stm.NewMemory(capWords), op: op, src: detrand.New(42)}
	if err := op.Init(testInitCtx{mem: h.mem}); err != nil {
		t.Fatalf("Init: %v", err)
	}
	return h
}

// feed processes one event through a full transaction.
func (h *testHarness) feed(input int, e event.Event) error {
	h.t.Helper()
	h.ts++
	tx := h.mem.Begin(h.ts)
	ctx := &testProcCtx{h: h, tx: tx, input: input, ts: e.Timestamp}
	if err := h.op.Process(ctx, e); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Complete(); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (h *testHarness) mustFeed(input int, e event.Event) {
	h.t.Helper()
	if err := h.feed(input, e); err != nil {
		h.t.Fatalf("feed: %v", err)
	}
}

func ev(seq uint64, ts int64, key uint64, val uint64) event.Event {
	return event.Event{ID: event.ID{Source: 1, Seq: event.Seq(seq)}, Timestamp: ts, Key: key, Payload: EncodeValue(val)}
}

// TestEmitHandsOverPayload audits every built-in against Context's
// ownership rule: a payload handed to Emit is never written again (the
// engine keeps the slice, it does not copy it), and the input payload is
// read-only. Each operator processes a stream that exercises its emitting
// paths; afterwards every handed-over slice must still hold what it held
// when it was emitted, and every input what it was fed.
func TestEmitHandsOverPayload(t *testing.T) {
	for _, tc := range []struct {
		name   string
		op     Operator
		words  int
		inputs int
	}{
		{"Filter", &Filter{}, 0, 1},
		{"Map", &Map{Fn: func(e event.Event) ([]byte, error) { return EncodeValue(DecodeValue(e.Payload) + 1), nil }}, 0, 1},
		{"Enrich", &Enrich{Annotate: func(e event.Event) []byte { return []byte{0xEE} }}, 0, 1},
		{"Union", &Union{}, 0, 2},
		{"Split", &Split{Outputs: 3}, 0, 1},
		{"Passthrough", &Passthrough{LogDecision: true}, 0, 1},
		{"CountWindowAvg", &CountWindowAvg{Window: 3}, CountWindowTraits.StateWords, 1},
		{"TimeWindowSum", &TimeWindowSum{Width: 4}, TimeWindowTraits.StateWords, 1},
		{"Classifier", &Classifier{Classes: 4}, 4, 1},
		{"Join", &Join{Buckets: 16}, JoinTraits(16).StateWords, 2},
		{"SketchOp", &SketchOp{Depth: 4, Width: 64, Seed: 1}, SketchTraits(4, 64).StateWords, 1},
		{"DistinctCount", &DistinctCount{Precision: 10, Seed: 1}, DistinctCountTraits(10).StateWords, 1},
		{"Dedup", &Dedup{Capacity: 64}, DedupTraits(64).StateWords, 1},
		{"Shedder", &Shedder{DropPerMille: 100}, 0, 1},
		{"Pattern", &Pattern{Stages: []uint64{1, 2}, Buckets: 16}, PatternTraits(16).StateWords, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.op, tc.words)
			var fed []event.Event
			for i := uint64(0); i < 40; i++ {
				e := ev(i, int64(i), i/2%8, 1+i%2) // both inputs see every key, with both values
				fed = append(fed, e)
				h.mustFeed(int(i)%tc.inputs, e)
			}
			if len(h.outs) == 0 {
				t.Fatal("the stream made the operator emit nothing")
			}
			for i, out := range h.outs {
				if !bytes.Equal(h.handed[i], out.payload) {
					t.Errorf("output %d was rewritten after Emit: %x, emitted as %x", i, h.handed[i], out.payload)
				}
			}
			for i, e := range fed {
				if want := EncodeValue(1 + uint64(i)%2); !bytes.Equal(e.Payload, want) {
					t.Errorf("input %d was written to: %x, fed as %x", i, e.Payload, want)
				}
			}
		})
	}
}

// TestClassifierProcessAllocs pins the payload rule from the operator's
// side: a Classifier event builds its (class, count) payload in the bytes
// the context hands it, and allocates nothing on top of what its
// transaction costs.
func TestClassifierProcessAllocs(t *testing.T) {
	c := &Classifier{Classes: 4}
	h := newHarness(t, c, 4)
	ctx := &ownCtx{}
	e := ev(1, 1, 1, 1)
	ts := int64(0)
	measure := func(work func() error) float64 {
		return testing.AllocsPerRun(200, func() {
			ts++
			ctx.tx = h.mem.Begin(ts)
			if err := work(); err != nil {
				t.Fatal(err)
			}
			if err := ctx.tx.Complete(); err != nil {
				t.Fatal(err)
			}
			if err := ctx.tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
	txOnly := measure(func() error { _, err := c.counts.Add(ctx.tx, 1, 1); return err })
	event := measure(func() error { return c.Process(ctx, e) })
	if event > txOnly {
		t.Errorf("a Classifier event allocated %.1f, its transaction alone %.1f: want no more", event, txOnly)
	}
	if class, _ := DecodePair(ctx.last); class != 1 {
		t.Errorf("emitted class %d, want 1", class)
	}
}

// ownCtx is a Context that keeps the emitted slice, as the engine does, and
// like the engine cuts payloads from a block it owns, no byte twice.
type ownCtx struct {
	testProcCtx
	last  []byte
	block []byte
}

func (c *ownCtx) Payload(n int) []byte {
	if n > len(c.block) {
		c.block = make([]byte, max(n, 4<<10))
	}
	p := c.block[:n:n]
	c.block = c.block[n:]
	return p
}

func (c *ownCtx) Emit(key uint64, payload []byte) error {
	c.last = payload
	return nil
}

func TestFilter(t *testing.T) {
	f := &Filter{Pred: func(e event.Event) bool { return e.Key%2 == 0 }}
	h := newHarness(t, f, 0)
	for k := uint64(0); k < 6; k++ {
		h.mustFeed(0, ev(k, int64(k), k, k))
	}
	if len(h.outs) != 3 {
		t.Fatalf("emitted %d, want 3", len(h.outs))
	}
	for _, o := range h.outs {
		if o.key%2 != 0 {
			t.Fatalf("odd key %d passed filter", o.key)
		}
	}
}

func TestFilterNilPredForwardsAll(t *testing.T) {
	h := newHarness(t, &Filter{}, 0)
	h.mustFeed(0, ev(1, 1, 1, 1))
	if len(h.outs) != 1 {
		t.Fatalf("emitted %d, want 1", len(h.outs))
	}
}

func TestMap(t *testing.T) {
	m := &Map{Fn: func(e event.Event) ([]byte, error) {
		return EncodeValue(DecodeValue(e.Payload) * 2), nil
	}}
	h := newHarness(t, m, 0)
	h.mustFeed(0, ev(1, 1, 7, 21))
	if got := DecodeValue(h.outs[0].payload); got != 42 {
		t.Fatalf("mapped value = %d, want 42", got)
	}
}

func TestMapError(t *testing.T) {
	wantErr := errors.New("boom")
	m := &Map{Fn: func(event.Event) ([]byte, error) { return nil, wantErr }}
	h := newHarness(t, m, 0)
	if err := h.feed(0, ev(1, 1, 1, 1)); !errors.Is(err, wantErr) {
		t.Fatalf("feed = %v, want wrapped boom", err)
	}
}

func TestEnrichAnnotates(t *testing.T) {
	en := &Enrich{Annotate: func(e event.Event) []byte { return []byte("!") }}
	h := newHarness(t, en, 0)
	h.mustFeed(0, event.Event{ID: event.ID{Source: 1, Seq: 1}, Key: 1, Payload: []byte("data")})
	if got := string(h.outs[0].payload); got != "data!" {
		t.Fatalf("payload = %q", got)
	}
}

func TestUnionPassthrough(t *testing.T) {
	h := newHarness(t, &Union{}, 0)
	h.mustFeed(0, ev(1, 1, 5, 50))
	h.mustFeed(1, ev(1, 2, 6, 60))
	if len(h.outs) != 2 || h.outs[0].key != 5 || h.outs[1].key != 6 {
		t.Fatalf("outs = %+v", h.outs)
	}
}

func TestSplitRandom(t *testing.T) {
	h := newHarness(t, &Split{Outputs: 3}, 0)
	seen := make(map[int]int)
	for i := uint64(0); i < 60; i++ {
		h.mustFeed(0, ev(i, int64(i), i, i))
	}
	for _, o := range h.outs {
		if o.port < 0 || o.port >= 3 {
			t.Fatalf("port %d out of range", o.port)
		}
		seen[o.port]++
	}
	for p := 0; p < 3; p++ {
		if seen[p] == 0 {
			t.Fatalf("port %d never used: %v", p, seen)
		}
	}
}

func TestSplitByKey(t *testing.T) {
	h := newHarness(t, &Split{Outputs: 4, ByKey: true}, 0)
	for i := uint64(0); i < 16; i++ {
		h.mustFeed(0, ev(i, int64(i), i, i))
	}
	for i, o := range h.outs {
		if o.port != int(o.key%4) {
			t.Fatalf("event %d: port %d, want %d", i, o.port, o.key%4)
		}
	}
}

func TestSplitZeroOutputsDefaultsToOne(t *testing.T) {
	h := newHarness(t, &Split{}, 0)
	h.mustFeed(0, ev(1, 1, 9, 9))
	if h.outs[0].port != 0 {
		t.Fatalf("port = %d", h.outs[0].port)
	}
}

func TestPassthroughLogsDecision(t *testing.T) {
	h := newHarness(t, &Passthrough{LogDecision: true}, 0)
	before := h.src.State()
	h.mustFeed(0, ev(1, 1, 1, 1))
	if h.src.State() == before {
		t.Fatal("no random draw taken")
	}
	if len(h.outs) != 1 {
		t.Fatalf("outs = %d", len(h.outs))
	}
}

func TestCountWindowAvg(t *testing.T) {
	a := &CountWindowAvg{Window: 3}
	h := newHarness(t, a, CountWindowTraits.StateWords)
	vals := []uint64{10, 20, 30, 4, 5, 9}
	for i, v := range vals {
		h.mustFeed(0, ev(uint64(i), int64(i), 1, v))
	}
	if len(h.outs) != 2 {
		t.Fatalf("emitted %d windows, want 2", len(h.outs))
	}
	if got := DecodeValue(h.outs[0].payload); got != 20 {
		t.Fatalf("window 1 avg = %d, want 20", got)
	}
	if got := DecodeValue(h.outs[1].payload); got != 6 {
		t.Fatalf("window 2 avg = %d, want 6", got)
	}
}

func TestTimeWindowSum(t *testing.T) {
	w := &TimeWindowSum{Width: 10}
	h := newHarness(t, w, TimeWindowTraits.StateWords)
	h.mustFeed(0, ev(1, 1, 1, 5))
	h.mustFeed(0, ev(2, 4, 1, 7))
	h.mustFeed(0, ev(3, 9, 1, 1)) // window [0,10) total 13
	if len(h.outs) != 0 {
		t.Fatalf("window flushed early: %+v", h.outs)
	}
	h.mustFeed(0, ev(4, 12, 1, 100)) // opens [10,20): flush [0,10)
	if len(h.outs) != 1 {
		t.Fatalf("emitted %d, want 1", len(h.outs))
	}
	if got := DecodeValue(h.outs[0].payload); got != 13 {
		t.Fatalf("window sum = %d, want 13", got)
	}
	if h.outs[0].ts != 10 {
		t.Fatalf("window stamped %d, want 10", h.outs[0].ts)
	}
	// A late event (ts back in [0,10)) folds into the current window.
	h.mustFeed(0, ev(5, 3, 1, 1))
	h.mustFeed(0, ev(6, 25, 1, 0)) // flush [10,20): 100 + late 1
	if got := DecodeValue(h.outs[1].payload); got != 101 {
		t.Fatalf("window 2 sum = %d, want 101", got)
	}
}

func TestClassifier(t *testing.T) {
	c := &Classifier{Classes: 4}
	h := newHarness(t, c, 4)
	keys := []uint64{0, 4, 8, 1, 2}
	for i, k := range keys {
		h.mustFeed(0, ev(uint64(i), int64(i), k, 0))
	}
	// Keys 0,4,8 are class 0 → counts 1,2,3; key 1 class 1 → 1; key 2 class 2 → 1.
	wantCounts := []uint64{1, 2, 3, 1, 1}
	wantClasses := []uint64{0, 0, 0, 1, 2}
	for i, o := range h.outs {
		class, count := DecodePair(o.payload)
		if class != wantClasses[i] || count != wantCounts[i] {
			t.Fatalf("out %d = class %d count %d, want %d/%d", i, class, count, wantClasses[i], wantCounts[i])
		}
	}
}

func TestClassifierInitValidation(t *testing.T) {
	if err := (&Classifier{}).Init(testInitCtx{mem: stm.NewMemory(4)}); err == nil {
		t.Fatal("Classifier{Classes:0}.Init succeeded")
	}
}

func TestJoinMatches(t *testing.T) {
	j := &Join{Buckets: 16}
	h := newHarness(t, j, JoinTraits(16).StateWords)
	h.mustFeed(0, ev(1, 1, 7, 100)) // left 7=100, no match yet
	if len(h.outs) != 0 {
		t.Fatalf("premature join output")
	}
	h.mustFeed(1, ev(1, 2, 7, 200)) // right 7=200 → match
	if len(h.outs) != 1 {
		t.Fatalf("emitted %d, want 1", len(h.outs))
	}
	l, r := DecodePair(h.outs[0].payload)
	if l != 100 || r != 200 {
		t.Fatalf("join pair = (%d,%d), want (100,200)", l, r)
	}
	// Update left: join re-fires with latest values.
	h.mustFeed(0, ev(2, 3, 7, 111))
	l, r = DecodePair(h.outs[1].payload)
	if l != 111 || r != 200 {
		t.Fatalf("join pair = (%d,%d), want (111,200)", l, r)
	}
}

func TestJoinRejectsBadInput(t *testing.T) {
	j := &Join{Buckets: 4}
	h := newHarness(t, j, JoinTraits(4).StateWords)
	if err := h.feed(2, ev(1, 1, 1, 1)); err == nil {
		t.Fatal("input index 2 accepted by binary join")
	}
}

func TestSketchOpEstimates(t *testing.T) {
	s := &SketchOp{Depth: 4, Width: 256, Seed: 9}
	h := newHarness(t, s, SketchTraits(4, 256).StateWords)
	for i := 0; i < 5; i++ {
		h.mustFeed(0, ev(uint64(i), int64(i), 77, 0))
	}
	last := DecodeValue(h.outs[len(h.outs)-1].payload)
	if last != 5 {
		t.Fatalf("estimate after 5 updates = %d, want 5", last)
	}
}

func TestPayloadCodecs(t *testing.T) {
	if got := DecodeValue(EncodeValue(12345)); got != 12345 {
		t.Fatalf("value round trip = %d", got)
	}
	if got := DecodeValue(nil); got != 0 {
		t.Fatalf("DecodeValue(nil) = %d", got)
	}
	if got := DecodeValue([]byte{1}); got != 1 {
		t.Fatalf("short payload = %d", got)
	}
	a, b := DecodePair(EncodePair(7, 9))
	if a != 7 || b != 9 {
		t.Fatalf("pair round trip = (%d,%d)", a, b)
	}
}

func TestBusyWorkBurnsTime(t *testing.T) {
	start := time.Now()
	BusyWork(5 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("BusyWork(5ms) took %v", elapsed)
	}
	BusyWork(0)  // no-op
	BusyWork(-1) // no-op
}
