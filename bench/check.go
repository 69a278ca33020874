package main

import (
	"fmt"

	"streammine/internal/sketch"
)

// reference judges finals against what a single-threaded computation by
// the benchmark says they must be. It never runs the engine: a Classifier
// is a counter array, a SketchOp is the plain CountSketch with the
// operator's seed.
type reference interface {
	// judge is called once per finalized event, in emission order, with the
	// event's input key and the content of its final. It returns what is
	// wrong with the final, or "".
	judge(key, outKey, v0, v1 uint64) string
}

// classifierRef judges the output of a chain of Classifier{Classes} of any
// length (stage one emits (class, count) keyed by class; every later stage
// maps that key to the same class and counts again).
//
// It judges the way the repository's own recovery tests do: the class
// must be the key's, and per class the counts must be exactly 1..N, each
// once. That proves every update was applied exactly once — a lost or
// repeated update leaves a gap and a duplicate — without assuming that a
// node admits events in the order they were emitted. The seed engine does
// not always: on the batched, credit-gated path one event in about ten
// million is overtaken by a few dozen later ones, and its count and theirs
// trade places. Such events are tallied in reordered, not failed.
type classifierRef struct {
	total     []uint64 // events per class in the whole run
	emitted   []uint64 // events per class so far: the count emission order predicts
	seen      [][]bool // seen[class][count]
	reordered int64
}

// newClassifierRef sizes the reference for the events a run emitted.
func newClassifierRef(classes int, slots []slot, emitted int64) *classifierRef {
	r := &classifierRef{total: make([]uint64, classes), emitted: make([]uint64, classes), seen: make([][]bool, classes)}
	for i := int64(1); i <= emitted; i++ {
		r.total[slots[i].key%uint64(classes)]++
	}
	for c := range r.seen {
		r.seen[c] = make([]bool, r.total[c]+1)
	}
	return r
}

func (r *classifierRef) judge(key, outKey, v0, v1 uint64) string {
	class := key % uint64(len(r.total))
	r.emitted[class]++
	switch {
	case outKey != class || v0 != class:
		return fmt.Sprintf("final is for class %d (key %d), the input's class is %d", v0, outKey, class)
	case v1 < 1 || v1 > r.total[class]:
		return fmt.Sprintf("final carries count %d, class %d has %d events", v1, class, r.total[class])
	case r.seen[class][v1]:
		return fmt.Sprintf("count %d of class %d was finalized twice: an update was lost or applied twice", v1, class)
	}
	r.seen[class][v1] = true
	if v1 != r.emitted[class] {
		r.reordered++
	}
	return ""
}

// sketchRef judges SketchOp{Depth, Width, Seed} outputs: update, then
// estimate, in emission order. Unlike classifierRef it does assume that
// order; the sketch nodes of this benchmark sit behind unbatched edges or
// a lightly loaded one, where no reordering was ever seen.
type sketchRef struct{ cs *sketch.CountSketch }

func newSketchRef(depth, width int, seed uint64) *sketchRef {
	return &sketchRef{cs: sketch.NewCountSketch(depth, width, seed)}
}

func (r *sketchRef) judge(key, outKey, v0, v1 uint64) string {
	r.cs.Update(key, 1)
	if want := uint64(r.cs.Estimate(key)); outKey != key || v0 != want || v1 != 0 {
		return fmt.Sprintf("final (key %d, estimate %d), reference (key %d, estimate %d)", outKey, v0, key, want)
	}
	return ""
}

// failure is one failed operation, kept for the report so a fix can cite
// the exact events.
type failure struct {
	Index  int64  `json:"index"`
	Key    uint64 `json:"key"`
	Reason string `json:"reason"`
}

// verdict is the checker's result over one sink table.
type verdict struct {
	attempted int64
	failed    int64 // events with any of the problems below, each counted once
	missing   int64 // no final by the drain deadline
	wrong     int64 // final content differs from the reference
	badDups   int64 // a later final differed from the first one
	reordered int64 // correct finals whose content shows another processing order than emission order
	first     []failure
}

const maxListedFailures = 10

// check holds the first emitted slots against the reference. Arrival order
// at the sink is irrelevant (slots are indexed by emission order) and
// byte-identical repeated finals are legal; a missing final, a final the
// reference rejects and a repeated final with other content each fail the
// event.
func check(slots []slot, emitted int64, ref reference) verdict {
	v := verdict{attempted: emitted}
	for i := int64(1); i <= emitted; i++ {
		sl := &slots[i]
		var reason string
		if sl.state.Load() != slotFinal {
			v.missing++
			reason = "no final"
			if sl.firstNs.Load() != 0 {
				reason = "no final (speculative output was delivered)"
			}
			// The reference must still see the event: later finals depend
			// on it having been applied.
			ref.judge(sl.key, 0, 0, 0)
		} else if reason = ref.judge(sl.key, sl.outKey, sl.v0, sl.v1); reason != "" {
			v.wrong++
		} else if sl.badDups.Load() != 0 {
			v.badDups++
			reason = "a repeated final carried different content"
		} else {
			continue
		}
		v.failed++
		if len(v.first) < maxListedFailures {
			v.first = append(v.first, failure{Index: i, Key: sl.key, Reason: reason})
		}
	}
	if c, ok := ref.(*classifierRef); ok {
		v.reordered = c.reordered
	}
	return v
}
