package checkpoint

import (
	"errors"
	"testing"
	"testing/quick"

	"streammine/internal/event"
)

func sample() *Snapshot {
	return &Snapshot{
		Operator:   7,
		Epoch:      3,
		CoveredLSN: 99,
		RandState:  0xDEADBEEF,
		Timestamp:  12345,
		Memory:     []uint64{1, 2, 3, 1 << 60},
		InputPositions: map[int]event.ID{
			0: {Source: 1, Seq: 100},
			1: {Source: 2, Seq: 200},
		},
		Outputs: []Output{
			{ID: event.ID{Source: 3, Seq: 50}, Port: 1, Timestamp: 1200, Key: 9, Version: 2, Trace: 0xfeedface, Payload: []byte("abc")},
			{ID: event.ID{Source: 3, Seq: 51}, Port: 0, Timestamp: 1201, Key: 10, Version: 1},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sample()
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Operator != s.Operator || got.Epoch != s.Epoch || got.CoveredLSN != s.CoveredLSN ||
		got.RandState != s.RandState || got.Timestamp != s.Timestamp {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Memory) != len(s.Memory) {
		t.Fatalf("memory length %d, want %d", len(got.Memory), len(s.Memory))
	}
	for i := range s.Memory {
		if got.Memory[i] != s.Memory[i] {
			t.Fatalf("memory[%d] = %d, want %d", i, got.Memory[i], s.Memory[i])
		}
	}
	if len(got.InputPositions) != 2 || got.InputPositions[0] != s.InputPositions[0] ||
		got.InputPositions[1] != s.InputPositions[1] {
		t.Fatalf("positions = %+v", got.InputPositions)
	}
	if len(got.Outputs) != len(s.Outputs) {
		t.Fatalf("outputs length %d, want %d", len(got.Outputs), len(s.Outputs))
	}
	for i, o := range s.Outputs {
		g := got.Outputs[i]
		if g.ID != o.ID || g.Port != o.Port || g.Timestamp != o.Timestamp ||
			g.Key != o.Key || g.Version != o.Version || g.Trace != o.Trace ||
			string(g.Payload) != string(o.Payload) {
			t.Fatalf("outputs[%d] = %+v, want %+v", i, g, o)
		}
	}
}

func TestDecodeEmptySnapshot(t *testing.T) {
	s := &Snapshot{Operator: 1, Epoch: 1, InputPositions: map[int]event.ID{}}
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Memory) != 0 || len(got.InputPositions) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	data := Encode(sample())
	for _, i := range []int{0, 10, len(data) / 2, len(data) - 5} {
		c := append([]byte(nil), data...)
		c[i] ^= 0xFF
		if _, err := Decode(c); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: Decode = %v, want ErrCorrupt", i, err)
		}
	}
	if _, err := Decode(data[:20]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short Decode = %v, want ErrCorrupt", err)
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	a, b := Encode(sample()), Encode(sample())
	if string(a) != string(b) {
		t.Fatal("two encodings of the same snapshot differ (map ordering leak)")
	}
}

func TestMemStoreLatest(t *testing.T) {
	st := NewMemStore()
	if _, err := st.Latest(7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest on empty = %v, want ErrNotFound", err)
	}
	s1 := sample()
	if err := st.Save(s1); err != nil {
		t.Fatal(err)
	}
	s2 := sample()
	s2.Epoch = 4
	s2.Memory = []uint64{9}
	if err := st.Save(s2); err != nil {
		t.Fatal(err)
	}
	got, err := st.Latest(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 4 || len(got.Memory) != 1 || got.Memory[0] != 9 {
		t.Fatalf("Latest = %+v, want epoch 4", got)
	}
}

func TestMemStoreRejectsStaleEpoch(t *testing.T) {
	st := NewMemStore()
	s := sample()
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	stale := sample()
	stale.Epoch = 2
	if err := st.Save(stale); err == nil {
		t.Fatal("stale epoch accepted")
	}
	same := sample()
	if err := st.Save(same); err == nil {
		t.Fatal("duplicate epoch accepted")
	}
}

func TestMemStorePerOperatorIsolation(t *testing.T) {
	st := NewMemStore()
	a := sample()
	b := sample()
	b.Operator = 8
	b.Memory = []uint64{42}
	if err := st.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(b); err != nil {
		t.Fatal(err)
	}
	gotA, err := st.Latest(7)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := st.Latest(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotA.Memory) != 4 || len(gotB.Memory) != 1 {
		t.Fatalf("cross-operator contamination: %v / %v", gotA.Memory, gotB.Memory)
	}
}

// TestQuickRoundTrip property-tests the codec with random snapshots.
func TestQuickRoundTrip(t *testing.T) {
	f := func(op uint32, epoch, lsn, rnd uint64, ts int64, mem []uint64, srcs []uint32, seqs []uint64) bool {
		if len(mem) > 64 {
			mem = mem[:64]
		}
		s := &Snapshot{
			Operator:       op,
			Epoch:          epoch,
			CoveredLSN:     lsn,
			RandState:      rnd,
			Timestamp:      ts,
			Memory:         mem,
			InputPositions: map[int]event.ID{},
		}
		n := len(srcs)
		if len(seqs) < n {
			n = len(seqs)
		}
		if n > 8 {
			n = 8
		}
		for i := 0; i < n; i++ {
			s.InputPositions[i] = event.ID{Source: event.SourceID(srcs[i]), Seq: event.Seq(seqs[i])}
		}
		got, err := Decode(Encode(s))
		if err != nil {
			return false
		}
		if got.Operator != s.Operator || got.Epoch != s.Epoch || got.Timestamp != s.Timestamp {
			return false
		}
		if len(got.Memory) != len(s.Memory) || len(got.InputPositions) != len(s.InputPositions) {
			return false
		}
		for i := range s.Memory {
			if got.Memory[i] != s.Memory[i] {
				return false
			}
		}
		for i, id := range s.InputPositions {
			if got.InputPositions[i] != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
