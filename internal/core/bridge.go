package core

import (
	"fmt"

	"streammine/internal/graph"
	"streammine/internal/transport"
)

// BridgeIn returns a connection handler that feeds a node input from a
// remote engine. Wire it to a transport listener:
//
//	h, _ := eng.BridgeIn(nodeID, 0)
//	srv, _ := transport.ListenConn("127.0.0.1:7070", h)
//
// Each message on a connection (re)binds it as the input's upstream, so
// the node's ACKs and recovery replay requests travel back over the most
// recent live link — after an upstream redial (the sending side is a
// ReliableBridge) or a failover to a different worker, control traffic
// must not keep flowing into the dead connection.
func (e *Engine) BridgeIn(id graph.NodeID, input int) (transport.ConnHandler, error) {
	n, err := e.node(id)
	if err != nil {
		return nil, err
	}
	if input < 0 {
		return nil, fmt.Errorf("core: negative input %d", input)
	}
	return func(c transport.Conn, m transport.Message) {
		n.mu.Lock()
		up := slot(&n.upstream, input)
		if cur, ok := (*up).(remoteUpstream); !ok || cur.c != c {
			*up = remoteUpstream{c: c}
		}
		n.mu.Unlock()
		m.Input = input
		n.mailbox.Push(m)
	}, nil
}
