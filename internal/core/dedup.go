package core

import (
	"streammine/internal/event"
	"streammine/internal/transport"
)

// Precise recovery drops a redelivered event the node has already
// committed, but an edge only ever repeats an output after it says so: a
// sender puts a REDELIVER frame on every link ahead of a replay, of the
// outputs of an incarnation restored from durable state, and of a re-sent
// output whose final already left (DESIGN.md §9.4). Until a node is told,
// nothing it receives can be a duplicate of a commit, so its commits are
// only appended to a log; the first REDELIVER — or the node's own recovery,
// or a bridged input whose connection replaces an earlier one — indexes the
// log once, and from then on, for the rest of the incarnation, every
// arrival is looked up as before.

// commitChunk is the number of IDs in one chunk of an unarmed commit log:
// 64 KiB without pointers, which the collector does not scan.
const commitChunk = 4096

// commitIndex holds every input the node committed this incarnation. While
// unarmed it is a log in commit order and has answers false; armed, it is
// the segmented set. The zero value is empty and unarmed. Guarded by n.mu.
type commitIndex struct {
	log   [][]event.ID // full chunks but the last
	set   idSet
	armed bool
}

// has reports whether id was committed and may be redelivered: always
// false before the node is armed, when no redelivery can arrive.
func (c *commitIndex) has(id event.ID) bool { return c.armed && c.set.has(id) }

// add records the commit of id.
func (c *commitIndex) add(id event.ID) {
	if c.armed {
		c.set.add(id)
		return
	}
	last := len(c.log) - 1
	if last < 0 || len(c.log[last]) == commitChunk {
		c.log = append(c.log, make([]event.ID, 0, commitChunk))
		last++
	}
	c.log[last] = append(c.log[last], id)
}

// arm indexes the log, once: from here on has answers from the set.
func (c *commitIndex) arm() {
	if c.armed {
		return
	}
	c.set.reserve(c.len())
	for _, chunk := range c.log {
		for _, id := range chunk {
			c.set.add(id)
		}
	}
	c.log, c.armed = nil, true
}

// len is the number of commits recorded, in the log or the set.
func (c *commitIndex) len() int {
	n := c.set.len()
	for _, chunk := range c.log {
		n += len(chunk)
	}
	return n
}

// armDedup arms the node's commit index (see commitIndex.arm).
func (n *node) armDedup() {
	n.mu.Lock()
	n.committed.arm()
	n.mu.Unlock()
}

// redeliver tells every link of every port that what follows may repeat an
// output whose final already went out. A subscriber ignores it.
func (n *node) redeliver() {
	for port := range n.links {
		n.deliverToPort(port, transport.Message{Type: transport.MsgRedeliver})
	}
}
