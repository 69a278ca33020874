package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// drainOrDump is Engine.Drain with a deadline. A node that never goes
// quiet — a task whose input never became final blocks in-order commit
// for good (ROADMAP open item 1) — used to hang the test binary until it
// was killed, with nothing to read. Past the deadline this fails the test
// instead and says where every stuck node stands: queue lengths, and the
// state of the oldest open task, the one in-order commit is waiting on.
// The engine seed in the message replays the round.
func drainOrDump(t *testing.T, eng *Engine, deadline time.Duration) {
	t.Helper()
	drained := make(chan struct{})
	go func() {
		eng.Drain() // returns once t.Cleanup stops the engine, if not before
		close(drained)
	}()
	select {
	case <-drained:
		return
	case <-time.After(deadline):
	}
	var b strings.Builder
	for _, n := range eng.nodes {
		if n.quiet() {
			continue
		}
		n.mu.Lock()
		open := n.open.n
		var head *task
		if open > 0 {
			head = n.open.at(0)
		}
		n.mu.Unlock()
		fmt.Fprintf(&b, "\n  node %q: mailbox %d, execQ %d, creditQueued %d, open %d",
			n.spec.Name, n.mailbox.Len(), n.execQ.Len(), n.creditQueued(), open)
		if head != nil {
			head.mu.Lock()
			state := [...]string{"?", "queued", "executing", "open", "committed", "cancelled"}[head.state]
			fmt.Fprintf(&b, "; head task seq %d state %s published %v evFinal %v pendingLogs %d input %s v%d",
				head.seq, state, head.published, head.evFinal, head.pendingLogs, head.ev.ID, head.ev.Version)
			head.mu.Unlock()
		}
	}
	t.Fatalf("engine (seed %d) not drained after %v; stuck nodes:%s", eng.opts.Seed, deadline, b.String())
}
