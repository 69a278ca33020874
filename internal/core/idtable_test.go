package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/transport"
)

// idFromHash returns the ID that hashID maps to h: the multiplier is odd,
// so it has an inverse modulo 2^64 (Newton's iteration doubles the correct
// low bits each round).
func idFromHash(h uint64) event.ID {
	const c = 0x9E3779B97F4A7C15
	inv := uint64(c)
	for i := 0; i < 6; i++ {
		inv *= 2 - c*inv
	}
	return event.ID{Seq: event.Seq(h * inv)}
}

// idUniverse is the key population of the differential tests: n IDs of
// each family the engine produces — dense sequences of two sources,
// outputID hashes — and 64 each of two an adversary could: IDs agreeing on
// their top 40 hash bits, so on their home slot in a table of any size, in
// mid-table and at the last slot, where their run wraps around to slot 0.
func idUniverse(n int) []event.ID {
	ids := make([]event.ID, 0, 3*n+128)
	for i := 0; i < n; i++ {
		ids = append(ids,
			event.ID{Source: 0, Seq: event.Seq(i)},
			event.ID{Source: 1, Seq: event.Seq(i + 1)},
			outputID(7, event.ID{Source: 0, Seq: event.Seq(i)}, i%3))
	}
	for i := uint64(0); i < 64; i++ {
		ids = append(ids, idFromHash(0x5A5A5A5A5A<<24|i), idFromHash(0xFFFFFFFFFF<<24|i))
	}
	return ids
}

// checkTable verifies the table's own invariants and that it holds exactly
// what the oracle does.
func checkTable(t testing.TB, tab *idTable[int], want map[event.ID]int) {
	t.Helper()
	if tab.len() != len(want) {
		t.Fatalf("len %d, want %d", tab.len(), len(want))
	}
	if 2*tab.n > len(tab.slots) {
		t.Fatalf("load above one half: %d in %d slots", tab.n, len(tab.slots))
	}
	used := 0
	for i := range tab.slots {
		s := &tab.slots[i]
		if !s.used {
			if *s != (idSlot[int]{}) {
				t.Fatalf("unused slot %d is not zero: %+v", i, *s)
			}
			continue
		}
		used++
		if j, ok := tab.find(hashID(s.id()), s.id()); !ok || j != i {
			t.Fatalf("slot %d (%s) is not reachable from its home: find = %d, %t", i, s.id(), j, ok)
		}
	}
	if used != tab.n {
		t.Fatalf("%d used slots, n = %d", used, tab.n)
	}
	seen := 0
	tab.each(func(id event.ID, v int) {
		seen++
		if w, ok := want[id]; !ok || w != v {
			t.Fatalf("each yields %s = %d, oracle has %d, %t", id, v, w, ok)
		}
	})
	if seen != len(want) {
		t.Fatalf("each yields %d bindings, want %d", seen, len(want))
	}
}

// tableOps interprets ops — three bytes each, the operation and a key
// index — on an idTable and an idSet and on their Go-map oracles, comparing
// every result, and the whole table every so many operations. It returns
// how often the table grew.
func tableOps(t testing.TB, ids []event.ID, ops []byte, every int) (growths int) {
	t.Helper()
	var tab idTable[int]
	var set idSet
	want, wantSet := map[event.ID]int{}, map[event.ID]bool{}
	for i := 0; i+2 < len(ops); i += 3 {
		id := ids[(int(ops[i+1])<<8|int(ops[i+2]))%len(ids)]
		slots := len(tab.slots)
		switch ops[i] % 7 {
		case 0, 1, 2: // put more often than delete, so the table fills
			tab.put(id, i)
			want[id] = i
		case 3, 4:
			_, had := want[id]
			if got := tab.delete(id); got != had {
				t.Fatalf("op %d: delete(%s) = %t, oracle %t", i, id, got, had)
			}
			delete(want, id)
		case 5:
			set.add(id)
			wantSet[id] = true
		case 6:
			if got := set.has(id); got != wantSet[id] {
				t.Fatalf("op %d: set.has(%s) = %t, oracle %t", i, id, got, wantSet[id])
			}
		}
		if i/3%every == 0 {
			checkTable(t, &tab, want)
		}
		if len(tab.slots) != slots {
			growths++
		}
		v, ok := tab.get(id)
		if w, had := want[id]; ok != had || v != w {
			t.Fatalf("op %d: get(%s) = %d, %t, oracle %d, %t", i, id, v, ok, w, had)
		}
		if tab.len() != len(want) || set.len() != len(wantSet) {
			t.Fatalf("op %d: len %d and %d, oracles %d and %d", i, tab.len(), set.len(), len(want), len(wantSet))
		}
	}
	checkTable(t, &tab, want)
	for _, id := range ids {
		if set.has(id) != wantSet[id] {
			t.Fatalf("set.has(%s) = %t, oracle %t", id, set.has(id), wantSet[id])
		}
	}
	return growths
}

// TestIDTableDifferential: two million random operations against a Go map.
func TestIDTableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 3*2_000_000)
	rng.Read(ops)
	if g := tableOps(t, idUniverse(4000), ops, 100_000); g < 3 {
		t.Fatalf("the table grew %d times, want at least 3", g)
	}
}

// TestIDTableDeleteAcrossWrap deletes from a run that starts at the last
// slot and wraps to the first ones, in every order of three.
func TestIDTableDeleteAcrossWrap(t *testing.T) {
	ids := []event.ID{idFromHash(^uint64(0)), idFromHash(^uint64(1)), idFromHash(^uint64(2))}
	for first := range ids {
		for second := range ids {
			if second == first {
				continue
			}
			var tab idTable[int]
			want := map[event.ID]int{}
			for i, id := range ids {
				tab.put(id, i)
				want[id] = i
			}
			last := len(tab.slots) - 1
			if !tab.slots[last].used || !tab.slots[0].used || !tab.slots[1].used {
				t.Fatal("the run does not wrap around")
			}
			for _, k := range []int{first, second} {
				tab.delete(ids[k])
				delete(want, ids[k])
				checkTable(t, &tab, want)
			}
		}
	}
}

func FuzzIDTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 3, 0, 0, 5, 0, 1, 6, 0, 1})
	rng := rand.New(rand.NewSource(2))
	seed := make([]byte, 3*4096)
	rng.Read(seed)
	f.Add(seed)
	ids := idUniverse(64)
	f.Fuzz(func(t *testing.T, ops []byte) { tableOps(t, ids, ops, 16) })
}

// TestIDSlotSize pins the layout the sets' memory footprint rests on.
func TestIDSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(idSlot[struct{}]{}); got != 16 {
		t.Fatalf("a set slot is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(idSlot[*task]{}); got != 24 {
		t.Fatalf("a pointer-valued slot is %d bytes, want 24", got)
	}
}

// TestIDSetInsertTouchesOneSegment: an insert writes to the slots of the
// one segment its hash selects — in place, or by doubling it while it is
// small, or by replacing it with its two halves once it is full — and to
// no other, so no insert costs more than rehashing idSegSlots/2 IDs into
// two new segments of at most idSegSlots slots.
func TestIDSetInsertTouchesOneSegment(t *testing.T) {
	type segState struct {
		slots *idSlot[struct{}]
		n     int
	}
	var set idSet
	before := map[*idTable[struct{}]]segState{}
	splits := 0
	for i := 0; i < 60_000; i++ {
		id := outputID(3, event.ID{Seq: event.Seq(i)}, 0)
		var target *idTable[struct{}]
		if set.dir != nil {
			target = set.dir[hashID(id)>>(64-set.depth)]
		}
		set.add(id)
		after := map[*idTable[struct{}]]segState{}
		fresh, freshIDs := 0, 0
		set.segments(func(seg *idTable[struct{}]) {
			if len(seg.slots) > idSegSlots {
				t.Fatalf("insert %d: a segment of %d slots", i, len(seg.slots))
			}
			st := segState{&seg.slots[0], seg.n}
			after[seg] = st
			switch was, ok := before[seg]; {
			case !ok:
				fresh++
				freshIDs += seg.n
			case was != st && seg != target:
				t.Fatalf("insert %d changed a segment other than its own", i)
			}
		})
		switch {
		case fresh == 0, fresh == 1 && target == nil:
		case fresh == 2 && len(after) == len(before)+1 && freshIDs == before[target].n+1:
			if _, kept := after[target]; kept {
				t.Fatalf("insert %d: a split segment stays in the directory", i)
			}
			splits++
		default:
			t.Fatalf("insert %d: %d new segments holding %d IDs, %d → %d segments", i, fresh, freshIDs, len(before), len(after))
		}
		before = after
	}
	if set.len() != 60_000 || splits < 16 {
		t.Fatalf("%d IDs after %d splits, want 60000 after at least 16", set.len(), splits)
	}
}

// TestIDSetSplitsSpread: the splits of a growing set are spread evenly
// over its growth. With segments of one size they would come in a burst
// each time the set doubles — every segment filling within the same few
// percent of it — which shows as a tail in the latency of whoever inserts.
func TestIDSetSplitsSpread(t *testing.T) {
	const window = 1 << 14
	var set idSet
	lo, hi, splits := window, 0, 0
	for i := 0; i < 1<<20; i++ {
		id := outputID(3, event.ID{Seq: event.Seq(i)}, 0)
		h := hashID(id)
		var was *idTable[struct{}]
		if set.dir != nil {
			was = set.dir[h>>(64-set.depth)]
		}
		set.add(id)
		if set.dir[h>>(64-set.depth)] != was {
			splits++
		}
		if (i+1)%window == 0 {
			if i >= 1<<18 { // two doublings, well past the first segment's own
				lo, hi = min(lo, splits), max(hi, splits)
			}
			splits = 0
		}
	}
	// A segment splits about every 1,000 inserts: 16 a window on average.
	if lo < 8 || hi > 32 {
		t.Fatalf("between %d and %d splits per %d inserts, want 8 to 32", lo, hi, window)
	}
}

// TestIDSetSharedPrefix: IDs whose hashes agree on more bits than the
// directory may spend split their segment down to the depth bound and then
// double it; the set stays correct and the directory bounded.
func TestIDSetSharedPrefix(t *testing.T) {
	const n = 3 * idSegSlots / 4 // more than a segment holds
	var set idSet
	for i := uint64(0); i < n; i++ {
		set.add(idFromHash(0xABCDEF0123<<24 | i))
		set.add(event.ID{Source: 2, Seq: event.Seq(i)})
	}
	for i := uint64(0); i < n; i++ {
		if !set.has(idFromHash(0xABCDEF0123<<24|i)) || !set.has(event.ID{Source: 2, Seq: event.Seq(i)}) {
			t.Fatalf("ID %d of either family is missing", i)
		}
	}
	if set.has(idFromHash(0xABCDEF0123<<24|n)) || set.len() != 2*n {
		t.Fatalf("the set holds %d IDs, or one never added; want %d", set.len(), 2*n)
	}
	if set.depth != idSetMaxDepth || len(set.dir) != 1<<idSetMaxDepth {
		t.Fatalf("depth %d with %d directory entries, want the bound %d", set.depth, len(set.dir), idSetMaxDepth)
	}
}

// TestIDTableSteadyStateAllocs: once a table has reached its working size,
// binding and unbinding allocate nothing, and neither does a set's lookup.
func TestIDTableSteadyStateAllocs(t *testing.T) {
	var tab idTable[*task]
	var set idSet
	ids := idUniverse(256)
	tk := &task{}
	for _, id := range ids {
		tab.put(id, tk)
		set.add(id)
	}
	for _, id := range ids {
		tab.delete(id)
	}
	hits := 0
	allocs := testing.AllocsPerRun(10, func() {
		for _, id := range ids {
			tab.put(id, tk)
		}
		for _, id := range ids {
			if _, ok := tab.get(id); ok && set.has(id) {
				hits++
			}
			tab.delete(id)
		}
	})
	if allocs != 0 || hits != 11*len(ids) || tab.len() != 0 {
		t.Fatalf("%v allocations per put/get/delete cycle (%d hits, %d left), want 0", allocs, hits, tab.len())
	}
}

// ackRecorder stands in for a node's upstream and keeps the IDs ACKed to it.
type ackRecorder struct {
	mu   sync.Mutex
	acks []event.ID
}

func (r *ackRecorder) send(m transport.Message) {
	var one [1]transport.FinalizeRef
	refs, ack := refsOf(&m, &one)
	r.mu.Lock()
	for _, f := range refs {
		if ack {
			r.acks = append(r.acks, f.ID)
		}
	}
	r.mu.Unlock()
}

// TestCommittedDedupSurvivesGrowth: duplicate suppression holds across
// every growth of the committed set. After 100,000 commits — the set has
// doubled its first segment to full size and split it many times — a
// redelivery of the first, a middle and the last input is re-ACKed
// upstream and none becomes a task.
func TestCommittedDedupSurvivesGrowth(t *testing.T) {
	const total, run = 100_000, 100
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	pass := g.AddNode(graph.Node{Name: "pass", Op: &operator.Passthrough{}, Speculative: true})
	g.Connect(src, 0, pass, 0)
	eng := newTestEngine(t, g, Options{Seed: 26})
	s, _ := eng.Source(src)
	n, _ := eng.node(pass)
	var dups []event.Event
	items := make([]BatchItem, run)
	for i := 0; i < total; i += run {
		for n.cDispatched.Load()+4096 < uint64(i) {
			time.Sleep(100 * time.Microsecond) // a window: keep the mailbox short
		}
		evs, err := s.EmitBatch(items)
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			dups = append(dups, evs[0])
		case total / 2:
			dups = append(dups, evs[0])
		case total - run:
			dups = append(dups, evs[run-1])
		}
	}
	eng.Drain()
	n.mu.Lock()
	committed, segments := n.committed.len(), 0
	n.committed.segments(func(*idTable[struct{}]) { segments++ })
	n.mu.Unlock()
	if committed != total || segments < 16 || n.cDispatched.Load() != total {
		t.Fatalf("%d IDs committed in %d segments after %d tasks, want %d in at least 16 after %d",
			committed, segments, n.cDispatched.Load(), total, total)
	}

	up := &ackRecorder{}
	n.setUpstream(0, up)
	var want []event.ID
	for _, ev := range dups {
		want = append(want, ev.ID)
		n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: ev, Input: 0})
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		up.mu.Lock()
		got := slices.Clone(up.acks)
		up.mu.Unlock()
		if slices.Equal(got, want) {
			break
		}
		if len(got) > len(want) || time.Now().After(deadline) {
			t.Fatalf("re-ACKed %v, want %v", got, want)
		}
	}
	eng.Drain()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cDispatched.Load() != total || n.tasks.len() != 0 || n.committed.len() != total {
		t.Fatalf("after the redeliveries: %d tasks admitted, %d live, %d IDs committed; want %d, 0, %d",
			n.cDispatched.Load(), n.tasks.len(), n.committed.len(), total, total)
	}
}
