package tracetool

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestWriteRecoveryGolden renders the anatomy of a SIGKILL failover from
// three trails: the coordinator's (detect, decide, catch-up), the
// victim's (its initial deploy, ending in a torn line) and the
// survivor's (its own initial deploy, then the takeover of the victim's
// partition). The epoch-1 spans of the initial deploy open no incident,
// and without the coordinator's trail nothing does.
func TestWriteRecoveryGolden(t *testing.T) {
	dir := filepath.Join("testdata", "recovery")
	set, err := Load(filepath.Join(dir, "coordinator.jsonl"), filepath.Join(dir, "w1.jsonl"), filepath.Join(dir, "w2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if set.TornTails != 1 {
		t.Fatalf("torn tails = %d, want 1 (the victim's)", set.TornTails)
	}
	var b bytes.Buffer
	set.WriteRecovery(&b)
	golden := filepath.Join("testdata", "recovery.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("recovery render drifted from golden (run with -update-golden to regenerate)\n--- got ---\n%s", b.String())
	}

	workers, err := Load(filepath.Join(dir, "w1.jsonl"), filepath.Join(dir, "w2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	workers.WriteRecovery(&b)
	if got := b.String(); got != "no recovery incidents recorded\n" {
		t.Errorf("worker trails alone rendered %q, want no incidents", got)
	}
}
