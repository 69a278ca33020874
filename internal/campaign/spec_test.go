package campaign

import (
	"strings"
	"testing"
	"time"
)

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(`{"name": "t", "workloads": ["paper"], "faults": ["sigkill"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Events != 1000 || s.Rate != 1500 || s.Workers != 2 {
		t.Fatalf("defaults: events=%d rate=%d workers=%d", s.Events, s.Rate, s.Workers)
	}
	if s.Timeout.D() != 120*time.Second {
		t.Fatalf("timeout default = %v", s.Timeout.D())
	}
	if s.Trigger != nil {
		t.Fatalf("trigger should default to nil (auto), got %v", s.Trigger)
	}
	if len(s.Configs) != 1 || s.Configs[0].Name != "spec" || !s.Configs[0].Spec() {
		t.Fatalf("config default = %+v", s.Configs)
	}
}

func TestParseFaultShorthandAndDurations(t *testing.T) {
	s, err := Parse([]byte(`{
		"name": "t", "workloads": ["paper"],
		"faults": ["slow_bridge", {"type": "coord_pause"}, {"type": "straggler", "duration": "5s", "target": "w2"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Faults[0].Duration.D(); d != 2*time.Second {
		t.Fatalf("slow_bridge default duration = %v", d)
	}
	if d := s.Faults[1].Duration.D(); d != 700*time.Millisecond {
		t.Fatalf("coord_pause default duration = %v", d)
	}
	if d := s.Faults[2].Duration.D(); d != 5*time.Second {
		t.Fatalf("explicit duration = %v", d)
	}
	if got := s.Faults[2].Label(); got != "straggler@w2" {
		t.Fatalf("label = %q", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"no name":          `{"workloads": ["paper"], "faults": ["sigkill"]}`,
		"no workloads":     `{"name": "t", "faults": ["sigkill"]}`,
		"unknown workload": `{"name": "t", "workloads": ["nope"], "faults": ["sigkill"]}`,
		"no faults":        `{"name": "t", "workloads": ["paper"]}`,
		"unknown fault":    `{"name": "t", "workloads": ["paper"], "faults": ["meteor"]}`,
		"two triggers":     `{"name": "t", "workloads": ["paper"], "faults": ["sigkill"], "trigger": {"sinkEvents": 5, "wallMs": 10}}`,
		"empty trigger":    `{"name": "t", "workloads": ["paper"], "faults": ["sigkill"], "trigger": {}}`,
		"bad metric":       `{"name": "t", "workloads": ["paper"], "faults": ["sigkill"], "trigger": {"metric": {"min": 3}}}`,
		"nameless config":  `{"name": "t", "workloads": ["paper"], "faults": ["sigkill"], "configs": [{"mailboxCap": 8}]}`,
		"dup config":       `{"name": "t", "workloads": ["paper"], "faults": ["sigkill"], "configs": [{"name": "a"}, {"name": "a"}]}`,
		"bad duration":     `{"name": "t", "workloads": ["paper"], "faults": [{"type": "sigkill", "duration": "fast"}]}`,
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: accepted %s", name, src)
		}
	}
}

func TestExpandBaselinesFirst(t *testing.T) {
	s, err := Parse([]byte(`{
		"name": "t",
		"workloads": ["paper", "window"],
		"faults": ["sigkill", "slow_disk"],
		"configs": [{"name": "spec"}, {"name": "nospec", "speculative": false}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Expand()
	// 2 workloads × 2 configs × (2 faults + auto baseline) = 12.
	if len(cells) != 12 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	seenBaseline := map[string]bool{}
	for _, c := range cells {
		if c.Baseline() {
			seenBaseline[c.BaselineKey()] = true
		} else if !seenBaseline[c.BaselineKey()] {
			t.Fatalf("cell %s runs before its baseline", c.Name())
		}
	}
	if len(seenBaseline) != 4 {
		t.Fatalf("saw %d baselines, want 4", len(seenBaseline))
	}
	if got := cells[0].Name(); got != "paper/none/spec" {
		t.Fatalf("first cell = %q", got)
	}
}

func TestExpandExplicitNoneNotDuplicated(t *testing.T) {
	s, err := Parse([]byte(`{"name": "t", "workloads": ["paper"], "faults": ["none", "sigkill"]}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Expand()
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	if !cells[0].Baseline() || cells[1].Baseline() {
		t.Fatalf("order = %s, %s", cells[0].Name(), cells[1].Name())
	}
}

func TestExpectedSinks(t *testing.T) {
	if n, exact := ExpectedSinks("paper", 1000); n != 1000 || !exact {
		t.Fatalf("paper: %d exact=%v", n, exact)
	}
	// The windowed workload emits roughly one output per window, so
	// sink-count triggers and drain waits must scale by it.
	if n, exact := ExpectedSinks("window", 1000); n != 62 || exact {
		t.Fatalf("window: %d exact=%v", n, exact)
	}
}

func TestTriggerString(t *testing.T) {
	cases := []struct {
		trig *Trigger
		want string
	}{
		{nil, "none"},
		{&Trigger{SinkEvents: 40}, "sinkEvents>=40"},
		{&Trigger{WallMs: 900}, "wall>=900ms"},
		{&Trigger{Metric: &MetricTrigger{Series: "streammine_events_total", Min: 12}}, "metric streammine_events_total>=12"},
	}
	for _, c := range cases {
		if got := c.trig.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestWorkloadTopologies(t *testing.T) {
	s, err := Parse([]byte(`{"name": "t", "workloads": ["paper"], "faults": ["sigkill"]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range WorkloadNames() {
		topo, err := Topology(w, s, Config{Name: "spec"})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !strings.Contains(topo, `"sink"`) {
			t.Fatalf("%s topology has no sink:\n%s", w, topo)
		}
		if IngestWorkload(w) != strings.Contains(topo, `"ingest": true`) {
			t.Fatalf("%s: ingest flag and topology disagree:\n%s", w, topo)
		}
	}
	if _, err := Topology("nope", s, Config{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	off := false
	topo, err := Topology("paper", s, Config{Name: "nospec", Speculative: &off, MailboxCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(topo, `"speculative": false`) || !strings.Contains(topo, `"mailboxCap": 64`) {
		t.Fatalf("config not applied:\n%s", topo)
	}
}
