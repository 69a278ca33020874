package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streammine/internal/campaign"
	"streammine/internal/tracetool"
)

// TestCampaignHealthEvidence runs a real two-fault campaign (straggler +
// sigkill against multi-process clusters) and asserts the health plane's
// acceptance criteria end to end:
//
//   - the straggler cell's /debug/health flagged the injected victim and
//     diagnosed a backpressure root-cause chain before the fault window
//     closed (the runner fails the cell otherwise; the test additionally
//     pins the recorded detection latencies);
//   - the SIGKILL'd worker's trace file loads (a torn tail tolerated),
//     and its trail holds the victim's epoch and running records.
func TestCampaignHealthEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign e2e launches real clusters and waits out fault windows")
	}
	dir := t.TempDir()
	bin, err := campaign.BuildBinary(dir)
	if err != nil {
		t.Fatalf("build streammine: %v", err)
	}

	specPath := filepath.Join(dir, "spec.json")
	specJSON := `{
	  "name": "health-e2e",
	  "workloads": ["paper"],
	  "faults": ["straggler", "sigkill"],
	  "events": 1000,
	  "rate": 1500,
	  "workers": 2,
	  "timeout": "120s"
	}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.Load(specPath)
	if err != nil {
		t.Fatal(err)
	}

	r := &campaign.Runner{Bin: bin, OutDir: dir, Logf: t.Logf}
	outcome, err := r.RunCells(spec, spec.Expand())
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	byFault := map[string]*campaign.Result{}
	for _, c := range outcome.Cells {
		if !c.Passed() {
			t.Errorf("cell %s failed: %v", c.Cell, c.Failures)
		}
		switch {
		case strings.Contains(c.Cell, "straggler"):
			byFault["straggler"] = c
		case strings.Contains(c.Cell, "sigkill"):
			byFault["sigkill"] = c
		}
	}

	strag := byFault["straggler"]
	if strag == nil {
		t.Fatal("no straggler cell in outcome")
	}
	window := float64(2 * time.Second / time.Millisecond)
	if strag.HealthStragglerMs <= 0 || strag.HealthStragglerMs > window {
		t.Errorf("straggler flagged at %.0f ms, want within (0, %.0f]", strag.HealthStragglerMs, window)
	}
	if strag.HealthChainMs <= 0 || strag.HealthChainMs > window {
		t.Errorf("backpressure chain at %.0f ms, want within (0, %.0f]", strag.HealthChainMs, window)
	}
	if strag.Victim == "" || !strings.Contains(strag.HealthChain, strag.Victim) {
		t.Errorf("chain %q does not name victim %q", strag.HealthChain, strag.Victim)
	}

	kill := byFault["sigkill"]
	if kill == nil {
		t.Fatal("no sigkill cell in outcome")
	}
	if kill.Victim == "" || len(kill.Trails) == 0 {
		t.Fatalf("sigkill cell: victim %q, %d trails", kill.Victim, len(kill.Trails))
	}
	var victimTrail string
	for _, p := range kill.Trails {
		if strings.HasSuffix(p, "/"+kill.Victim+".jsonl") {
			victimTrail = filepath.Join(dir, p)
		}
	}
	if victimTrail == "" {
		t.Fatalf("no trail for victim %s among %v", kill.Victim, kill.Trails)
	}
	set, err := tracetool.Load(victimTrail)
	if err != nil {
		t.Fatalf("victim trail unreadable: %v", err)
	}
	var buf bytes.Buffer
	set.WriteTrail(&buf)
	var epoch, running bool
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, kill.Victim) {
			continue
		}
		epoch = epoch || strings.Contains(line, " epoch ") && strings.Contains(line, "worker="+kill.Victim)
		running = running || strings.Contains(line, " lifecycle ") && strings.Contains(line, "running epoch=")
	}
	if !epoch || !running {
		t.Errorf("victim trail lacks its epoch (%v) or running (%v) record:\n%s", epoch, running, buf.String())
	}
}
