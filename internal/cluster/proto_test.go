package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"streammine/internal/core"
	"streammine/internal/transport"
)

// TestControlCodecRoundTrip pushes every control payload through the
// encode/decode pair and through the wire codec, since that is exactly
// the path coordinator↔worker messages travel.
func TestControlCodecRoundTrip(t *testing.T) {
	edge := Edge{From: "union", FromPort: 1, To: "classify", ToInput: 0, PeerAddr: "127.0.0.1:9999"}
	cases := []struct {
		typ transport.MsgType
		in  any
		out any
	}{
		{transport.MsgRegister, &RegisterMsg{Name: "w1", DataAddr: "127.0.0.1:7001"}, &RegisterMsg{}},
		{transport.MsgAssign, &AssignMsg{
			Partition: 2, Epoch: 3, Topology: []byte(`{"nodes":[]}`),
			Nodes: []string{"a", "b"}, CutIn: []Edge{edge}, CutOut: []Edge{edge},
		}, &AssignMsg{}},
		{transport.MsgStart, &StartMsg{Partition: 2}, &StartMsg{}},
		{transport.MsgStatus, &StatusMsg{
			Name: "w1", Partition: 2, Epoch: 3, Phase: PhaseRunning,
			Committed: 41, Quiesced: true, Err: "boom",
			Sections: map[string]json.RawMessage{
				sectionPressure: json.RawMessage(`[{"node":"classify","dataDepth":7,"dataCap":32}]`),
			},
		}, &StatusMsg{}},
		{transport.MsgStop, &StopMsg{Reason: "done"}, &StopMsg{}},
		{transport.MsgHello, &HelloMsg{Edge: edge}, &HelloMsg{}},
	}
	for _, c := range cases {
		m, err := encodeCtl(c.typ, c.in)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.typ, err)
		}
		if m.Type != c.typ {
			t.Fatalf("%s: message type %v", c.typ, m.Type)
		}
		// Through the wire framing too.
		frame := transport.EncodeMessage(nil, m)
		back, _, err := transport.DecodeMessage(frame)
		if err != nil {
			t.Fatalf("%s: deframe: %v", c.typ, err)
		}
		if err := decodeCtl(back, c.out); err != nil {
			t.Fatalf("%s: decode: %v", c.typ, err)
		}
		if !reflect.DeepEqual(c.in, c.out) {
			t.Errorf("%s: round trip:\n in  %+v\n out %+v", c.typ, c.in, c.out)
		}
	}
}

// TestSectionDecode is the coordinator's read side of StatusMsg.Sections:
// a body decodes into the type its reader asks for; a missing or
// malformed body reports !ok instead of a zero value that looks like data.
func TestSectionDecode(t *testing.T) {
	secs := map[string]json.RawMessage{
		sectionPressure: json.RawMessage(`[{"node":"classify","dataDepth":7,"dataCap":32}]`),
		sectionHealth:   json.RawMessage(`{"not":"a list"}`),
	}
	ps, ok := section[[]core.NodePressure](secs, sectionPressure)
	if !ok || len(ps) != 1 || ps[0].Node != "classify" || ps[0].DataDepth != 7 {
		t.Errorf("pressure = %+v ok=%v, want classify depth 7", ps, ok)
	}
	if _, ok := section[[]core.NodeHealth](secs, sectionHealth); ok {
		t.Error("malformed health body decoded ok")
	}
	if _, ok := section[[]core.NodeHealth](secs, sectionSpeculation); ok {
		t.Error("absent speculation section decoded ok")
	}
}

func TestEdgeKey(t *testing.T) {
	e := Edge{From: "a", FromPort: 1, To: "b", ToInput: 2}
	if got := e.Key(); got != "a:1->b:2" {
		t.Fatalf("key = %q", got)
	}
	// PeerAddr must not affect routing identity.
	e.PeerAddr = "somewhere:1"
	if got := e.Key(); got != "a:1->b:2" {
		t.Fatalf("key with addr = %q", got)
	}
}
