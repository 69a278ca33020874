package stm

import (
	"errors"
	"runtime"
	"sort"
	"testing"

	"streammine/internal/detrand"
)

// recordedOp is one operation a transaction performed, with the value it
// observed (reads) or wrote.
type recordedOp struct {
	isWrite bool
	addr    Addr
	value   uint64
}

// TestSerializabilityRandomOpenChains builds random batches of
// transactions that all stay open (pre-commit) while later ones execute —
// maximal speculative read-from/overwrite chaining, with some timestamps
// swapped so that an older transaction joins chains behind newer owners —
// while a second goroutine aborts transactions at random, executing, open
// or mid-chain. It commits what is left in timestamp order and checks the
// history three ways:
//
//   - against a sequential model: replaying the committed transactions in
//     timestamp order, every recorded read matches the model state;
//   - cascades are complete: a transaction that read from or overwrote one
//     that ended aborted ended aborted itself;
//   - commit order holds: Commit never succeeds while a transaction read
//     from or overwritten is uncommitted (probed out of order before each
//     in-order commit), and none committed before one it overwrote.
//
// The last two are what the dependency edges are for. Only the edges that
// are not implied transitively are registered (see join); what a
// transaction read from or overwrote is taken here from the read set and
// from the chain as it was after the join, not from those edges.
func TestSerializabilityRandomOpenChains(t *testing.T) {
	const (
		rounds    = 60
		addrSpace = 8
		txPerRun  = 12
		opsPerTx  = 6
	)
	type txRec struct {
		tx        *Tx
		ops       []recordedOp
		after     []*txRec // read from or overwrote these
		failed    bool
		commitSeq int
	}
	rng := detrand.New(12345)
	for round := 0; round < rounds; round++ {
		mem := NewMemory(addrSpace)
		stamps := make([]int64, txPerRun)
		for i := range stamps {
			stamps[i] = int64(i + 1)
		}
		for n := 0; n < txPerRun/3; n++ {
			i := rng.Intn(txPerRun - 3)
			j := i + 1 + rng.Intn(3)
			stamps[i], stamps[j] = stamps[j], stamps[i]
		}
		txs := make([]*txRec, txPerRun)
		byTx := make(map[*Tx]*txRec, txPerRun)
		for i := range txs {
			txs[i] = &txRec{tx: mem.Begin(stamps[i])}
			byTx[txs[i].tx] = txs[i]
		}
		// The aborter works through its own random picks for as long as the
		// round runs; some land on executing transactions, some on open ones
		// in the middle of a chain, some during the commits.
		victims := make([]*Tx, txPerRun/4)
		for i := range victims {
			victims[i] = txs[rng.Intn(txPerRun)].tx
		}
		stop := make(chan struct{})
		aborterDone := make(chan struct{})
		go func() {
			defer close(aborterDone)
			for _, v := range victims {
				for spin := 0; spin < 40; spin++ {
					runtime.Gosched()
				}
				select {
				case <-stop:
					return
				default:
					v.Abort()
				}
			}
		}()
		// Execute all transactions, leaving each open.
		for _, rec := range txs {
			joined := make(map[Addr]bool)
			for o := 0; o < opsPerTx && !rec.failed; o++ {
				addr := Addr(rng.Intn(addrSpace))
				if rng.Intn(2) == 0 {
					v, err := rec.tx.Read(addr)
					if err != nil {
						rec.failed = true
						break
					}
					rec.ops = append(rec.ops, recordedOp{addr: addr, value: v})
					if re := rec.tx.reads.find(addr); re != nil && re.from != nil {
						rec.after = append(rec.after, byTx[re.from])
					}
					continue
				}
				v := rng.Uint64() % 1000
				if err := rec.tx.Write(addr, v); err != nil {
					rec.failed = true
					break
				}
				rec.ops = append(rec.ops, recordedOp{isWrite: true, addr: addr, value: v})
				if !joined[addr] { // addrSpace slots: one address each
					joined[addr] = true
					c := mem.chainOf(addr)
					c.mu.Lock()
					for _, o := range c.owners {
						if o == rec.tx {
							break
						}
						if !o.newerThan(rec.tx) {
							rec.after = append(rec.after, byTx[o])
						}
					}
					c.mu.Unlock()
				}
				runtime.Gosched()
			}
			if !rec.failed && rec.tx.Complete() != nil {
				rec.failed = true
			}
			if rec.failed {
				rec.tx.Abort()
			}
		}
		// Commit in timestamp order; every dependency then has an earlier
		// timestamp and is finished, so ErrDepsOpen cannot occur — except in
		// the probe, which tries a random transaction out of turn first.
		order := append([]*txRec(nil), txs...)
		sort.Slice(order, func(i, j int) bool { return order[j].tx.newerThan(order[i].tx) })
		commits := 0
		commit := func(rec *txRec) error {
			err := rec.tx.Commit()
			if err == nil {
				commits++
				rec.commitSeq = commits
			}
			return err
		}
		for i, rec := range order {
			probe := order[i+rng.Intn(txPerRun-i)]
			blocked := false
			for _, u := range probe.after {
				blocked = blocked || u.tx.Status() != StatusCommitted
			}
			if blocked && commit(probe) == nil {
				t.Fatalf("round %d: tx ts=%d committed before one it read from or overwrote", round, probe.tx.ts)
			}
			if st := rec.tx.Status(); st == StatusAborted || st == StatusCommitted {
				continue
			}
			if err := commit(rec); err != nil && !errors.Is(err, ErrConflict) {
				// ErrConflict: a cascade or a stale read got it; anything else
				// (ErrDepsOpen in timestamp order included) is a bug.
				t.Fatalf("round %d: commit of ts=%d: %v", round, rec.tx.ts, err)
			}
			runtime.Gosched()
		}
		close(stop)
		<-aborterDone
		for _, rec := range order {
			st := rec.tx.Status()
			if st != StatusCommitted && st != StatusAborted {
				t.Fatalf("round %d: tx ts=%d ended %v", round, rec.tx.ts, st)
			}
			for _, u := range rec.after {
				switch {
				case st == StatusAborted:
				case u.tx.Status() != StatusCommitted:
					t.Fatalf("round %d: tx ts=%d committed, but read from or overwrote ts=%d, which ended %v",
						round, rec.tx.ts, u.tx.ts, u.tx.Status())
				case u.commitSeq >= rec.commitSeq:
					t.Fatalf("round %d: tx ts=%d is commit %d, ts=%d, which it overwrote, commit %d",
						round, rec.tx.ts, rec.commitSeq, u.tx.ts, u.commitSeq)
				}
			}
		}
		// Model replay: committed transactions in ts order.
		model := make([]uint64, addrSpace)
		for _, rec := range order {
			if rec.tx.Status() != StatusCommitted {
				continue
			}
			for _, op := range rec.ops {
				if op.isWrite {
					model[op.addr] = op.value
					continue
				}
				if model[op.addr] != op.value {
					t.Fatalf("round %d tx ts=%d: read of %d observed %d, serial model has %d",
						round, rec.tx.ts, op.addr, op.value, model[op.addr])
				}
			}
		}
		for a := 0; a < addrSpace; a++ {
			got, err := mem.ReadCommitted(Addr(a))
			if err != nil {
				t.Fatal(err)
			}
			if got != model[a] {
				t.Fatalf("round %d: final memory[%d] = %d, model %d", round, a, got, model[a])
			}
		}
	}
}

// TestCascadeConsistencyNoDanglingReads verifies that no COMMITTED
// transaction ever read data from an ABORTED one: build a chain, abort the
// head, and check every survivor.
func TestCascadeConsistencyNoDanglingReads(t *testing.T) {
	rng := detrand.New(777)
	for round := 0; round < 40; round++ {
		mem := NewMemory(4)
		var all []*Tx
		for i := 0; i < 8; i++ {
			tx := mem.Begin(int64(i + 1))
			ok := true
			for o := 0; o < 3; o++ {
				addr := Addr(rng.Intn(4))
				if rng.Intn(2) == 0 {
					if _, err := tx.Read(addr); err != nil {
						ok = false
						break
					}
				} else if err := tx.Write(addr, rng.Uint64()); err != nil {
					ok = false
					break
				}
			}
			if ok && tx.Complete() == nil {
				all = append(all, tx)
			} else {
				tx.Abort()
			}
		}
		if len(all) == 0 {
			continue
		}
		victim := all[int(rng.Intn(len(all)))]
		victim.Abort()
		for _, tx := range all {
			if tx == victim {
				continue
			}
			err := tx.Commit()
			switch {
			case err == nil, errors.Is(err, ErrConflict):
				// Committed (independent) or cascaded (dependent): both fine.
			case errors.Is(err, ErrDepsOpen):
				// A dep earlier in `all` also cascaded; skip this tx.
				tx.Abort()
			default:
				t.Fatalf("round %d: commit: %v", round, err)
			}
		}
		// The victim's buffered writes must not be visible.
		if victim.Status() != StatusAborted {
			t.Fatal("victim not aborted")
		}
	}
}
