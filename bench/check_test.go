package main

import (
	"strings"
	"testing"

	"streammine/internal/event"
	"streammine/internal/operator"
	"streammine/internal/sketch"
)

// emitKeys makes a sink whose generator has emitted the given keys.
func emitKeys(t *testing.T, keys ...uint64) *sink {
	t.Helper()
	s, err := newSink(len(keys))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	for i, k := range keys {
		s.slots[i+1].key = k
	}
	s.emitted.Store(int64(len(keys)))
	return s
}

// classified is the final a Classifier{4} chain owes for the idx-th event.
func classified(idx int64, class, count uint64) event.Event {
	return event.Event{Timestamp: idx, Key: class, Payload: operator.EncodePair(class, count)}
}

func TestCheckerVerdicts(t *testing.T) {
	keys := []uint64{4, 5, 8, 6} // classes 0, 1, 0, 2 → counts 1, 1, 2, 1
	want := []event.Event{classified(1, 0, 1), classified(2, 1, 1), classified(3, 0, 2), classified(4, 2, 1)}

	t.Run("reordered but correct", func(t *testing.T) {
		s := emitKeys(t, keys...)
		for _, i := range []int{3, 0, 2, 1} {
			s.onFinal(want[i], true)
		}
		v := check(s.slots, s.emitted.Load(), newClassifierRef(4, s.slots, s.emitted.Load()))
		if v.attempted != 4 || v.failed != 0 {
			t.Errorf("verdict %+v, want 4 attempted and none failed: arrival order is not part of correctness", v)
		}
	})

	t.Run("applied in another order", func(t *testing.T) {
		// Events 1 and 3 share class 0; the engine counted 3 before 1.
		s := emitKeys(t, keys...)
		for _, e := range []event.Event{classified(1, 0, 2), want[1], classified(3, 0, 1), want[3]} {
			s.onFinal(e, true)
		}
		v := check(s.slots, s.emitted.Load(), newClassifierRef(4, s.slots, s.emitted.Load()))
		if v.failed != 0 || v.reordered != 2 {
			t.Errorf("verdict %+v, want no failure and two reordered finals: every update was applied exactly once", v)
		}
	})

	t.Run("missing final", func(t *testing.T) {
		s := emitKeys(t, keys...)
		for _, i := range []int{0, 1, 3} {
			s.onFinal(want[i], true)
		}
		// The speculative copy arrived; the final never did.
		if err := (sinkOp{s: s}).Process(discardCtx{}, want[2]); err != nil {
			t.Fatal(err)
		}
		v := check(s.slots, s.emitted.Load(), newClassifierRef(4, s.slots, s.emitted.Load()))
		if v.failed != 1 || v.missing != 1 || len(v.first) != 1 || v.first[0].Index != 3 || v.first[0].Key != 8 {
			t.Fatalf("verdict %+v, want exactly event 3 (key 8) missing", v)
		}
		if !strings.Contains(v.first[0].Reason, "speculative output was delivered") {
			t.Errorf("reason %q does not say the speculative copy had arrived", v.first[0].Reason)
		}
	})

	t.Run("byte-identical duplicate", func(t *testing.T) {
		s := emitKeys(t, keys...)
		for _, e := range want {
			s.onFinal(e, true)
		}
		s.onFinal(want[1], true)
		v := check(s.slots, s.emitted.Load(), newClassifierRef(4, s.slots, s.emitted.Load()))
		if v.failed != 0 || s.dupFinals.Load() != 1 {
			t.Errorf("verdict %+v dupFinals=%d, want no failure and one legal duplicate", v, s.dupFinals.Load())
		}
	})

	t.Run("duplicate with different content", func(t *testing.T) {
		s := emitKeys(t, keys...)
		for _, e := range want {
			s.onFinal(e, true)
		}
		s.onFinal(classified(2, 1, 7), true)
		v := check(s.slots, s.emitted.Load(), newClassifierRef(4, s.slots, s.emitted.Load()))
		if v.failed != 1 || v.badDups != 1 || v.first[0].Index != 2 {
			t.Errorf("verdict %+v, want event 2 failed for a second final with other content", v)
		}
	})

	t.Run("final differs from the reference", func(t *testing.T) {
		s := emitKeys(t, keys...)
		for i, e := range want {
			if i == 2 {
				e = classified(3, 0, 1) // a lost update: count 1 again
			}
			s.onFinal(e, true)
		}
		v := check(s.slots, s.emitted.Load(), newClassifierRef(4, s.slots, s.emitted.Load()))
		if v.failed != 1 || v.wrong != 1 || v.first[0].Index != 3 || !strings.Contains(v.first[0].Reason, "finalized twice") {
			t.Errorf("verdict %+v, want event 3 failed for repeating count 1", v)
		}
	})

	t.Run("output nobody emitted", func(t *testing.T) {
		s := emitKeys(t, keys...)
		s.onFinal(classified(9, 0, 1), true)
		s.onFinal(want[0], false) // a non-speculative sink node never sends a speculative copy
		if s.strays.Load() != 2 {
			t.Errorf("strays=%d, want 2", s.strays.Load())
		}
	})
}

func TestSketchReferenceMatchesCountSketch(t *testing.T) {
	ref := newSketchRef(4, 64, sketchSeed)
	cs := sketch.NewCountSketch(4, 64, sketchSeed)
	for _, k := range []uint64{3, 9, 3, 3, 1 << 40, 9} {
		cs.Update(k, 1)
		est := uint64(cs.Estimate(k))
		if why := ref.judge(k, k, est, 0); why != "" {
			t.Errorf("key %d: the reference rejects CountSketch's own estimate %d: %s", k, est, why)
		}
	}
	if why := ref.judge(3, 3, 99, 0); why == "" {
		t.Error("the reference accepts a wrong estimate")
	}
	if why := ref.judge(3, 4, 5, 0); why == "" {
		t.Error("the reference accepts a final under another key")
	}
}

// discardCtx is the operator context of a sink node in tests: it accepts
// the forwarded event and drops it.
type discardCtx struct{ operator.Context }

func (discardCtx) Emit(uint64, []byte) error { return nil }
