package event

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	tests := []struct {
		id   ID
		want string
	}{
		{ID{Source: 0, Seq: 0}, "0:0"},
		{ID{Source: 7, Seq: 42}, "7:42"},
		{ID{Source: 4294967295, Seq: 18446744073709551615}, "4294967295:18446744073709551615"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("ID%v.String() = %q, want %q", tt.id, got, tt.want)
		}
	}
}

func TestIDLess(t *testing.T) {
	tests := []struct {
		name string
		a, b ID
		want bool
	}{
		{"same", ID{1, 1}, ID{1, 1}, false},
		{"seq less", ID{1, 1}, ID{1, 2}, true},
		{"seq greater", ID{1, 3}, ID{1, 2}, false},
		{"source dominates seq", ID{1, 99}, ID{2, 0}, true},
		{"source greater", ID{3, 0}, ID{2, 99}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Less(tt.b); got != tt.want {
				t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := New(ID{1, 2}, 3, []byte("hello"))
	c := e.Clone()
	c.Payload[0] = 'X'
	if e.Payload[0] != 'h' {
		t.Fatal("Clone shares payload with original")
	}
	if !e.SameContent(New(ID{1, 2}, 3, []byte("hello"))) {
		t.Fatal("original mutated by clone edit")
	}
}

func TestCloneNilPayload(t *testing.T) {
	e := New(ID{1, 2}, 3, nil)
	c := e.Clone()
	if c.Payload != nil {
		t.Fatalf("Clone of nil payload = %v, want nil", c.Payload)
	}
}

func TestAsFinalAndNextVersion(t *testing.T) {
	e := NewSpeculative(ID{1, 1}, 10, []byte("a"))
	if !e.Speculative || e.Version != 0 {
		t.Fatalf("NewSpeculative: got %+v", e)
	}
	f := e.AsFinal()
	if f.Speculative {
		t.Fatal("AsFinal left speculative flag set")
	}
	if !e.Speculative {
		t.Fatal("AsFinal mutated receiver")
	}
	v1 := e.NextVersion([]byte("b"))
	if v1.Version != 1 || !v1.Speculative || string(v1.Payload) != "b" {
		t.Fatalf("NextVersion: got %+v", v1)
	}
	if v1.ID != e.ID || v1.Timestamp != e.Timestamp {
		t.Fatal("NextVersion changed identity")
	}
}

func TestSameContentIgnoresSpeculationMetadata(t *testing.T) {
	a := Event{ID: ID{1, 1}, Timestamp: 5, Key: 9, Payload: []byte("x"), Speculative: true, Version: 3}
	b := Event{ID: ID{1, 1}, Timestamp: 5, Key: 9, Payload: []byte("x")}
	if !a.SameContent(b) {
		t.Fatal("SameContent should ignore speculative flag and version")
	}
	b.Key = 10
	if a.SameContent(b) {
		t.Fatal("SameContent should compare keys")
	}
}

func TestBefore(t *testing.T) {
	tests := []struct {
		name string
		a, b Event
		want bool
	}{
		{"timestamp order", Event{ID: ID{2, 2}, Timestamp: 1}, Event{ID: ID{1, 1}, Timestamp: 2}, true},
		{"timestamp reverse", Event{ID: ID{1, 1}, Timestamp: 3}, Event{ID: ID{2, 2}, Timestamp: 2}, false},
		{"tie broken by id", Event{ID: ID{1, 1}, Timestamp: 5}, Event{ID: ID{1, 2}, Timestamp: 5}, true},
		{"equal", Event{ID: ID{1, 1}, Timestamp: 5}, Event{ID: ID{1, 1}, Timestamp: 5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Before(tt.b); got != tt.want {
				t.Errorf("Before = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	events := []Event{
		{},
		New(ID{1, 2}, 3, []byte("payload")),
		NewSpeculative(ID{9, 100}, -5, nil),
		{ID: ID{4294967295, 1 << 60}, Timestamp: 1 << 40, Version: 77, Speculative: true, Key: 1 << 50, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{ID: ID{5, 6}, Timestamp: 7, Trace: TraceOf(ID{5, 6}), Payload: []byte("traced")},
		{ID: ID{5, 7}, Trace: ^uint64(0), Speculative: true},
	}
	for i, e := range events {
		buf := e.Encode(nil)
		if len(buf) != e.EncodedSize() {
			t.Errorf("event %d: EncodedSize=%d, Encode produced %d", i, e.EncodedSize(), len(buf))
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("event %d: Decode: %v", i, err)
		}
		if n != len(buf) {
			t.Errorf("event %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !eventsEqual(got, e) {
			t.Errorf("event %d: round trip:\n got %+v\nwant %+v", i, got, e)
		}
	}
}

func eventsEqual(a, b Event) bool {
	return a.ID == b.ID && a.Timestamp == b.Timestamp && a.Version == b.Version &&
		a.Speculative == b.Speculative && a.Key == b.Key && a.Trace == b.Trace &&
		bytes.Equal(a.Payload, b.Payload)
}

// TestEncodeUntracedIsLegacyCompatible pins the codec versioning: an
// untraced event encodes to exactly the pre-trace wire format (no flag
// bit, no trailer), so old decoders read frames from new encoders as long
// as tracing is off, and the traced form is strictly additive.
func TestEncodeUntracedIsLegacyCompatible(t *testing.T) {
	e := New(ID{1, 2}, 3, []byte("payload"))
	buf := e.Encode(nil)
	if len(buf) != headerSize+len(e.Payload) {
		t.Fatalf("untraced frame is %d bytes, want header %d + payload %d", len(buf), headerSize, len(e.Payload))
	}
	if buf[24]&flagTraced != 0 {
		t.Fatal("untraced frame has the traced flag set")
	}
	traced := e
	traced.Trace = TraceOf(e.ID)
	tbuf := traced.Encode(nil)
	if len(tbuf) != len(buf)+traceSize {
		t.Fatalf("traced frame is %d bytes, want %d + %d trailer", len(tbuf), len(buf), traceSize)
	}
	if tbuf[24]&flagTraced == 0 {
		t.Fatal("traced frame is missing the traced flag")
	}
	// The traced frame's prefix is the legacy frame except the flag byte:
	// a decoder that knows the flag reads the trailer, one event at a time.
	got, n, err := Decode(tbuf)
	if err != nil || n != len(tbuf) {
		t.Fatalf("Decode traced frame: n=%d err=%v", n, err)
	}
	if got.Trace != traced.Trace {
		t.Fatalf("trace = %x, want %x", got.Trace, traced.Trace)
	}
}

// TestTraceOf pins the deterministic trace-id derivation: stable across
// calls (failover re-emission joins the original lineage), never zero
// (zero means untraced), and well-mixed across adjacent sequences.
func TestTraceOf(t *testing.T) {
	id := ID{Source: 3, Seq: 41}
	if TraceOf(id) != TraceOf(id) {
		t.Fatal("TraceOf is not deterministic")
	}
	seen := make(map[uint64]ID)
	for src := SourceID(0); src < 8; src++ {
		for seq := Seq(0); seq < 1000; seq++ {
			tr := TraceOf(ID{Source: src, Seq: seq})
			if tr == 0 {
				t.Fatalf("TraceOf(%d:%d) = 0; zero is reserved for untraced", src, seq)
			}
			if prev, dup := seen[tr]; dup {
				t.Fatalf("trace collision: %v and %v", prev, ID{Source: src, Seq: seq})
			}
			seen[tr] = ID{Source: src, Seq: seq}
		}
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	e := New(ID{1, 2}, 3, []byte("hello"))
	buf := e.Encode(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded, want error", cut, len(buf))
		}
	}
}

func TestDecodeRejectsHugePayload(t *testing.T) {
	e := New(ID{1, 2}, 3, []byte("hello"))
	buf := e.Encode(nil)
	// Corrupt the length prefix to claim an enormous payload.
	buf[33], buf[34], buf[35], buf[36] = 0xFF, 0xFF, 0xFF, 0x7F
	_, _, err := Decode(buf)
	if err == nil {
		t.Fatal("Decode accepted oversized payload length")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	batch := []Event{
		New(ID{1, 1}, 1, []byte("a")),
		NewSpeculative(ID{2, 2}, 2, []byte("bb")),
		New(ID{3, 3}, 3, nil),
	}
	buf := EncodeBatch(nil, batch)
	got, n, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if len(got) != len(batch) {
		t.Fatalf("got %d events, want %d", len(got), len(batch))
	}
	for i := range batch {
		if !eventsEqual(got[i], batch[i]) {
			t.Errorf("event %d mismatch: got %+v want %+v", i, got[i], batch[i])
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	buf := EncodeBatch(nil, nil)
	got, _, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d events, want 0", len(got))
	}
}

func TestBatchTruncated(t *testing.T) {
	buf := EncodeBatch(nil, []Event{New(ID{1, 1}, 1, []byte("abc"))})
	if _, _, err := DecodeBatch(buf[:len(buf)-1]); err == nil {
		t.Fatal("DecodeBatch accepted truncated input")
	}
	if _, _, err := DecodeBatch(nil); err == nil {
		t.Fatal("DecodeBatch accepted empty input")
	}
}

// TestQuickRoundTrip property-tests the codec over random events.
func TestQuickRoundTrip(t *testing.T) {
	f := func(src uint32, seq uint64, ts int64, ver uint32, spec bool, key uint64, payload []byte) bool {
		e := Event{
			ID:          ID{Source: SourceID(src), Seq: Seq(seq)},
			Timestamp:   ts,
			Version:     Version(ver),
			Speculative: spec,
			Key:         key,
			Payload:     payload,
		}
		buf := e.Encode(nil)
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		// Decode yields nil for empty payloads; normalize before comparing.
		if len(payload) == 0 {
			e.Payload = nil
		}
		return eventsEqual(got, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBeforeIsStrictOrder property-tests that Before is a strict total
// order (irreflexive, asymmetric, and connected on distinct events).
func TestQuickBeforeIsStrictOrder(t *testing.T) {
	f := func(s1, s2 uint32, q1, q2 uint64, t1, t2 int64) bool {
		a := Event{ID: ID{SourceID(s1), Seq(q1)}, Timestamp: t1}
		b := Event{ID: ID{SourceID(s2), Seq(q2)}, Timestamp: t2}
		if a.Before(a) || b.Before(b) {
			return false // must be irreflexive
		}
		same := a.ID == b.ID && a.Timestamp == b.Timestamp
		if same {
			return !a.Before(b) && !b.Before(a)
		}
		return a.Before(b) != b.Before(a) // exactly one direction
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	e := New(ID{1, 2}, 3, bytes.Repeat([]byte{0x55}, 128))
	buf := make([]byte, 0, e.EncodedSize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = e.Encode(buf[:0])
	}
}

func BenchmarkDecode(b *testing.B) {
	e := New(ID{1, 2}, 3, bytes.Repeat([]byte{0x55}, 128))
	buf := e.Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCodecAllocs pins the codec's allocations: encoding into a buffer with
// room and decoding one event allocate nothing (the payload aliases the
// source), and decoding a batch allocates its slice of events only.
func TestCodecAllocs(t *testing.T) {
	evs := make([]Event, 8)
	for i := range evs {
		evs[i] = New(ID{1, Seq(i)}, 3, bytes.Repeat([]byte{0x55}, 16))
	}
	one := evs[0].Encode(nil)
	batch := EncodeBatch(nil, evs)
	buf := make([]byte, 0, len(batch))
	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Encode", 0, func() { buf = evs[0].Encode(buf[:0]) }},
		{"Decode", 0, func() { _, _, _ = Decode(one) }},
		{"EncodeBatch", 0, func() { buf = EncodeBatch(buf[:0], evs) }},
		{"DecodeBatch", 1, func() { _, _, _ = DecodeBatch(batch) }},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got > tc.want {
			t.Errorf("%s allocated %.1f, want at most %.0f", tc.name, got, tc.want)
		}
	}
}
