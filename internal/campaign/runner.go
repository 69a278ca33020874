package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streammine/internal/flightrec"
	"streammine/internal/ingest"
	"streammine/internal/operator"
	"streammine/internal/procharness"
	"streammine/internal/recovery"
	"streammine/internal/tracetool"
)

const (
	// ingestStream is the gateway-fed source every ingest workload names.
	ingestStream = "src"
	// ingestTenantsJSON declares the single tenant the runner's driver
	// authenticates as.
	ingestTenantsJSON = `[{"name": "t0", "token": "tok-0"}]`
	// ingestBatch is the driver's records-per-Send granularity.
	ingestBatch = 25
)

// Result is one cell's measured outcome. A cell passes when Failures is
// empty; measurements are reported even for failed cells when they were
// obtainable.
type Result struct {
	Cell     string `json:"cell"`
	Workload string `json:"workload"`
	Fault    string `json:"fault"`
	Config   string `json:"config"`
	Baseline bool   `json:"baseline"`
	// Victim is the process a targeted fault hit.
	Victim string `json:"victim,omitempty"`
	// Trigger is the trigger that armed the fault, rendered.
	Trigger string `json:"trigger,omitempty"`
	// Events is the distinct sink outputs externalized.
	Events int `json:"events"`
	// DupPrints counts duplicate sink prints that indicate a suppression
	// leak: any same-process repeat, plus cross-process repeats when no
	// process-killing fault was injected. Must be zero.
	DupPrints int `json:"dup_prints"`
	// ReplayedPrints counts benign cross-incarnation re-prints after a
	// process-kill fault: the reassigned sink partition re-externalizes
	// its post-checkpoint tail on the survivor (at-least-once at the
	// output boundary; the identity set stays exactly-once).
	ReplayedPrints int `json:"replayed_prints,omitempty"`
	// RecoveryMs is the injection→recovered-delivery time (faulted cells).
	RecoveryMs float64 `json:"recovery_ms,omitempty"`
	// RecoveryDetectedMs is the detection-anchored recovery time: from
	// the coordinator declaring the victim dead (instrumented timeline)
	// to the black-box recovered-delivery point. RecoveryMs conflates
	// injection→detection lag with recovery proper; this one doesn't.
	RecoveryDetectedMs float64 `json:"recovery_detected_ms,omitempty"`
	// Per-phase recovery anatomy joined from /debug/recovery (cells
	// whose fault lost a worker): interval-union durations per phase,
	// their sum (for the cross-check against RecoveryMs), the replay
	// throughput, and the phase that dominated the incident.
	DetectMs           float64 `json:"detect_ms,omitempty"`
	DecideMs           float64 `json:"decide_ms,omitempty"`
	RestoreMs          float64 `json:"restore_ms,omitempty"`
	RefillMs           float64 `json:"refill_ms,omitempty"`
	ReplayMs           float64 `json:"replay_ms,omitempty"`
	CatchupMs          float64 `json:"catchup_ms,omitempty"`
	RecoveryPhaseSumMs float64 `json:"recovery_phase_sum_ms,omitempty"`
	ReplayEventsPerSec float64 `json:"replay_events_per_sec,omitempty"`
	RecoveryDominant   string  `json:"recovery_dominant_phase,omitempty"`
	// CompletenessPct is the share of externalized lineages that are
	// reconstructable end to end from the merged traces.
	CompletenessPct float64 `json:"completeness_pct"`
	latencySplit
	// WasteAbortedAttempts / WasteCPUPct are the speculation-waste ledger
	// scraped from the coordinator before it exited.
	WasteAbortedAttempts uint64  `json:"waste_aborted_attempts,omitempty"`
	WasteCPUPct          float64 `json:"waste_cpu_pct,omitempty"`
	// HealthStragglerMs is how long after injection the coordinator's
	// /debug/health first flagged the victim worker as a straggler
	// (straggler cells; 0 = never detected).
	HealthStragglerMs float64 `json:"health_straggler_ms,omitempty"`
	// HealthChainMs is how long after injection /debug/health first
	// reported a backpressure root-cause chain rooted on the victim
	// (0 = never detected).
	HealthChainMs float64 `json:"health_chain_ms,omitempty"`
	// HealthChain is the first diagnosed chain, rendered sink ← … ← root.
	HealthChain string `json:"health_chain,omitempty"`
	// FlightRecDumps lists the flight-recorder snapshots the cell's
	// processes left behind (paths relative to the campaign OutDir),
	// attached for failed cells and process-kill faults so the report can
	// link the evidence.
	FlightRecDumps []string `json:"flightrec_dumps,omitempty"`
	// DurationMs is the cell's wall time, launch to verdict.
	DurationMs float64 `json:"duration_ms"`
	// Failures lists every assertion the cell failed (empty = passed).
	Failures []string `json:"failures,omitempty"`
}

// Passed reports whether every assertion held.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

// Outcome is a full campaign's results.
type Outcome struct {
	Campaign string    `json:"campaign"`
	Cells    []*Result `json:"cells"`
}

// Passed reports whether every cell passed.
func (o *Outcome) Passed() bool {
	for _, c := range o.Cells {
		if !c.Passed() {
			return false
		}
	}
	return true
}

// Runner executes campaign cells against real clusters.
type Runner struct {
	// Bin is the streammine binary (see procharness.BuildBinary).
	Bin string
	// OutDir receives per-cell artifacts under cells/<name>/ (topology,
	// traces, result.json).
	OutDir string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// RunCells executes the cells in order (Spec.Expand puts baselines first
// per workload × config, so faulted cells always compare against an
// already-measured identity set; cmd/campaign's -cells filter keeps each
// selected cell's baseline in the list). Cell failures become per-cell
// verdicts, not errors; RunCells only errors when it cannot run at all.
func (r *Runner) RunCells(s *Spec, cells []Cell) (*Outcome, error) {
	if r.Bin == "" || r.OutDir == "" {
		return nil, fmt.Errorf("campaign: Runner needs Bin and OutDir")
	}
	out := &Outcome{Campaign: s.Name}
	// baselines maps BaselineKey → the passing baseline's identity set.
	baselines := make(map[string]map[string]bool)
	for i, cell := range cells {
		r.logf("cell %d/%d %s: running", i+1, len(cells), cell.Name())
		res := r.runCell(s, cell, baselines)
		out.Cells = append(out.Cells, res)
		if res.Passed() {
			r.logf("cell %d/%d %s: ok (%d events, recovery %.0fms, completeness %.2f%%)",
				i+1, len(cells), cell.Name(), res.Events, res.RecoveryMs, res.CompletenessPct)
		} else {
			r.logf("cell %d/%d %s: FAILED: %v", i+1, len(cells), cell.Name(), res.Failures)
		}
	}
	return out, nil
}

// BuildBinary compiles the streammine binary into dir for cluster
// launches (the cmd/campaign default when -bin is not given).
func BuildBinary(dir string) (string, error) {
	return procharness.BuildBinary(dir, "streammine/cmd/streammine")
}

// runCell executes one cell end to end: launch, trigger, inject, drain,
// measure, assert.
func (r *Runner) runCell(s *Spec, cell Cell, baselines map[string]map[string]bool) *Result {
	res := &Result{
		Cell:     cell.Name(),
		Workload: cell.Workload,
		Fault:    cell.Fault.Label(),
		Config:   cell.Config.Name,
		Baseline: cell.Baseline(),
	}
	started := time.Now()
	defer func() { res.DurationMs = float64(time.Since(started)) / float64(time.Millisecond) }()
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	cellDir := filepath.Join(r.OutDir, "cells", sanitizeName(cell.Name()))
	// A stale cell dir from a previous campaign holds worker state (WAL,
	// checkpoints, admission logs) the cluster would restore and replay,
	// so every run must start from scratch.
	if err := os.RemoveAll(cellDir); err != nil {
		fail("cell dir: %v", err)
		return res
	}
	traceDir := filepath.Join(cellDir, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fail("cell dir: %v", err)
		return res
	}
	topo, err := Topology(cell.Workload, s, cell.Config)
	if err != nil {
		fail("%v", err)
		return res
	}
	if err := os.WriteFile(filepath.Join(cellDir, "topology.json"), []byte(topo), 0o644); err != nil {
		fail("write topology: %v", err)
		return res
	}

	// Every process flies the crash flight recorder: a SIGKILL'd worker
	// leaves its last seconds of lifecycle/chaos/span records on disk.
	frDir := filepath.Join(cellDir, "flightrec")
	coordArgs := []string{"-debug-addr", "127.0.0.1:0", "-flightrec", "-flightrec-dir", frDir}
	workerArgs := []string{"-chaos", "-debug-addr", "127.0.0.1:0", "-profile-speculation",
		"-flightrec", "-flightrec-dir", frDir}
	ingestFed := IngestWorkload(cell.Workload)
	if ingestFed {
		tenantsPath := filepath.Join(cellDir, "tenants.json")
		if err := os.WriteFile(tenantsPath, []byte(ingestTenantsJSON), 0o644); err != nil {
			fail("write tenants: %v", err)
			return res
		}
		workerArgs = append(workerArgs, "-ingest-addr", "127.0.0.1:0", "-ingest-tenants", tenantsPath)
	}

	cl, err := procharness.Start(procharness.Options{
		Bin:        r.Bin,
		Topology:   topo,
		Dir:        cellDir,
		Workers:    s.Workers,
		CoordArgs:  coordArgs,
		WorkerArgs: workerArgs,
		TraceDir:   traceDir,
	})
	if err != nil {
		fail("launch: %v", err)
		return res
	}
	defer cl.Close()
	launched := time.Now()

	waste := pollWaste(cl)
	defer waste.Stop()
	var healthW *healthWatch
	defer func() { healthW.Stop() }()
	recW := pollRecovery(cl)
	defer recW.Stop()

	var driverErr chan error
	if ingestFed {
		driverErr = make(chan error, 1)
		go func() { driverErr <- driveIngest(cl, cell.Workload, s) }()
	}
	expected, exact := ExpectedSinks(cell.Workload, s.Events)

	// Trigger and inject. Precedence: the fault's own trigger, then the
	// campaign default, then auto (a tenth of the expected sink outputs —
	// sink counts, not raw events, so aggregating workloads still fire).
	var in *injection
	defer func() { _ = in.Clear() }()
	if !cell.Baseline() {
		trig := cell.Fault.Trigger
		if trig == nil {
			trig = s.Trigger
		}
		if trig == nil {
			n := expected / 10
			if n < 1 {
				n = 1
			}
			trig = &Trigger{SinkEvents: n}
		}
		res.Trigger = trig.String()
		if err := awaitTrigger(cl, trig, launched, s.Timeout.D()); err != nil {
			fail("trigger: %v", err)
			return res
		}
		in, err = inject(cl, cell.Workload, cell.Fault)
		if err != nil {
			fail("inject: %v", err)
			return res
		}
		res.Victim = in.Victim
		healthW = watchHealth(cl, in.Victim, in.At)
		if in.Transient() {
			clearAfter := cell.Fault.Duration.D()
			time.AfterFunc(clearAfter, func() { _ = in.Clear() })
		}
	}

	// Completion. Ingest-fed partitions are open-ended (producers may
	// reconnect), so their coordinator never reports done: wait for the
	// driver plus the sink drain instead, settle briefly so a late
	// duplicate print is caught, then tear down. Closed-ended runs end
	// when the coordinator exits zero.
	if ingestFed {
		if err := <-driverErr; err != nil {
			fail("ingest driver: %v", err)
		}
		if err := cl.Sinks.WaitDistinct(expected, 60*time.Second); err != nil {
			fail("drain: %v", err)
		}
		time.Sleep(500 * time.Millisecond)
		cl.Close()
	} else if err := cl.WaitDone(s.Timeout.D()); err != nil {
		fail("run: %v", err)
	}
	_ = in.Clear()

	ids, _ := cl.Sinks.Snapshot()
	res.Events = len(ids)
	sameWorker, crossWorker := cl.Sinks.DupBreakdown()
	if cell.Fault.Type == "sigkill" {
		// A killed sink host's partition re-externalizes its
		// post-checkpoint tail on the survivor: cross-process re-prints
		// are the at-least-once output boundary, not a leak.
		res.DupPrints = sameWorker
		res.ReplayedPrints = crossWorker
	} else {
		res.DupPrints = sameWorker + crossWorker
	}
	if res.DupPrints > 0 {
		fail("%d duplicate sink prints (suppression leaked)", res.DupPrints)
	}
	if cell.Baseline() && exact && len(ids) != expected {
		fail("baseline externalized %d distinct events, want %d", len(ids), expected)
	}

	// Recovery from the wall-anchored sink timeline, then the latency
	// split from merged traces. The fault window for the "during" bucket
	// runs from injection to whichever is later: the declared clear point
	// or the measured recovery.
	var faultStart, faultEnd time.Time
	if in != nil {
		faultStart = in.At
		res.RecoveryMs = recoveryMs(cl.Sinks.Timeline(), in.At)
		faultEnd = in.At.Add(time.Duration(res.RecoveryMs * float64(time.Millisecond)))
		if in.Transient() {
			if clearAt := in.At.Add(cell.Fault.Duration.D()); clearAt.After(faultEnd) {
				faultEnd = clearAt
			}
		}
	}

	paths, _ := filepath.Glob(filepath.Join(traceDir, "*.jsonl"))
	if set, err := tracetool.Load(paths...); err != nil {
		fail("traces: %v", err)
	} else {
		ext, complete := completeness(set)
		if ext > 0 {
			res.CompletenessPct = 100 * float64(complete) / float64(ext)
		}
		if res.CompletenessPct < 99 {
			fail("lineage completeness %.2f%% < 99%%", res.CompletenessPct)
		}
		res.latencySplit = latencyFromTraces(set, faultStart, faultEnd)
	}

	if sum := waste.Stop(); sum != nil {
		res.WasteAbortedAttempts = sum.TotalAborted()
		res.WasteCPUPct = sum.WastePct()
	}

	// Join the black-box recovery clock with the instrumented anatomy
	// timeline from /debug/recovery (present when the fault lost a
	// worker and the coordinator opened an incident).
	if rep := recW.Stop(); rep != nil && in != nil {
		inc := rep.Incidents[len(rep.Incidents)-1]
		res.DetectMs = inc.PhaseMs[recovery.PhaseDetect]
		res.DecideMs = inc.PhaseMs[recovery.PhaseDecide]
		res.RestoreMs = inc.PhaseMs[recovery.PhaseRestore]
		res.RefillMs = inc.PhaseMs[recovery.PhaseRefill]
		res.ReplayMs = inc.PhaseMs[recovery.PhaseReplay]
		res.CatchupMs = inc.PhaseMs[recovery.PhaseCatchup]
		res.ReplayEventsPerSec = inc.ReplayEventsPerSec
		res.RecoveryDominant = inc.DominantPhase
		for _, ms := range inc.PhaseMs {
			res.RecoveryPhaseSumMs += ms
		}
		if res.RecoveryMs > 0 && inc.DetectedNs > 0 {
			// Detection-anchored recovery: black-box recovered-at minus
			// the wall time the coordinator declared the victim dead.
			recoveredAt := in.At.Add(time.Duration(res.RecoveryMs * float64(time.Millisecond)))
			if d := recoveredAt.Sub(time.Unix(0, inc.DetectedNs)); d > 0 {
				res.RecoveryDetectedMs = float64(d) / float64(time.Millisecond)
			}
			if res.RecoveryDetectedMs > 0 && res.RecoveryMs > 2*res.RecoveryDetectedMs {
				r.logf("  warning: %s: recovery_ms %.0f diverges >2x from recovery_detected_ms %.0f — detection lag dominates the black-box clock",
					cell.Name(), res.RecoveryMs, res.RecoveryDetectedMs)
			}
		}
		if res.RecoveryMs > 0 && res.RecoveryPhaseSumMs > 0 {
			// The instrumented phases should account for the black-box
			// dip to within 20%; divergence means a phase is missing
			// instrumentation (warn — CI timing noise must not fail
			// cells, the benchjson -require columns are the hard gate).
			// The clocks are anchored differently — the timeline starts
			// at the victim's last heartbeat and ends at the
			// fold-granular catch-up close, the dip runs injection to
			// sink-rate recovery — so clip the spans to the dip window
			// before comparing: that measures attribution coverage, not
			// anchor skew.
			dipStart := in.At.UnixNano()
			dipEnd := in.At.Add(time.Duration(res.RecoveryMs * float64(time.Millisecond))).UnixNano()
			var clipped float64
			for _, ms := range inc.PhaseMsWithin(dipStart, dipEnd) {
				clipped += ms
			}
			if ratio := clipped / res.RecoveryMs; ratio < 0.8 || ratio > 1.2 {
				r.logf("  warning: %s: instrumented phases cover %.0fms of the %.0fms black-box dip (%.0f%%; raw phase sum %.0fms)",
					cell.Name(), clipped, res.RecoveryMs, 100*ratio, res.RecoveryPhaseSumMs)
			}
		}
		// Persist the anatomy report for `tracetool recovery` and the
		// CI failure-evidence upload.
		if data, err := json.MarshalIndent(rep, "", "  "); err == nil {
			_ = os.WriteFile(filepath.Join(cellDir, "recovery.json"), append(data, '\n'), 0o644)
		}
	}

	// Live-diagnosis assertions: /debug/health must have named the
	// injected victim before the fault window closed.
	res.HealthStragglerMs, res.HealthChainMs, res.HealthChain = healthW.Stop()
	windowMs := float64(cell.Fault.Duration.D()) / float64(time.Millisecond)
	switch cell.Fault.Type {
	case "straggler":
		if res.HealthStragglerMs == 0 {
			fail("health: /debug/health never flagged straggling worker %s", res.Victim)
		} else if windowMs > 0 && res.HealthStragglerMs > windowMs {
			fail("health: straggler %s flagged %.0fms after injection — after the %.0fms fault window closed",
				res.Victim, res.HealthStragglerMs, windowMs)
		}
		if res.HealthChainMs == 0 {
			fail("health: no backpressure root-cause chain rooted on %s", res.Victim)
		}
	case "slow_bridge":
		if res.HealthChainMs == 0 {
			fail("health: no backpressure root-cause chain diagnosed during the slow_bridge window")
		} else if windowMs > 0 && res.HealthChainMs > windowMs {
			fail("health: backpressure chain diagnosed %.0fms after injection — after the %.0fms fault window closed",
				res.HealthChainMs, windowMs)
		}
	}

	// Delivery assertion: a faulted cell must externalize exactly the
	// identity set its fault-free baseline did — nothing acknowledged may
	// be lost, nothing may appear twice (precise recovery, paper §2.2).
	key := cell.BaselineKey()
	if cell.Baseline() {
		if res.Passed() && baselines[key] == nil {
			baselines[key] = ids
		}
	} else if base := baselines[key]; base == nil {
		fail("no passing baseline for %s to compare against", key)
	} else {
		missing, extra := 0, 0
		for id := range base {
			if !ids[id] {
				missing++
			}
		}
		for id := range ids {
			if !base[id] {
				extra++
			}
		}
		if missing > 0 || extra > 0 {
			fail("identity set diverges from baseline: %d missing, %d extra (baseline %d, got %d)",
				missing, extra, len(base), len(ids))
		}
	}

	// Flight-recorder evidence. A process-kill fault must leave the
	// victim's parseable dump on disk (the snapshotter wrote it at most a
	// second before the SIGKILL); failed cells attach every dump so the
	// report links the evidence.
	if cell.Fault.Type == "sigkill" && res.Victim != "" {
		dumpPath := filepath.Join(frDir, res.Victim+".json")
		if d, err := flightrec.ReadDump(dumpPath); err != nil {
			fail("flightrec: victim %s left no parseable dump: %v", res.Victim, err)
		} else if len(d.Entries) == 0 {
			fail("flightrec: victim %s dump holds no records", res.Victim)
		}
	}
	if cell.Fault.Type == "sigkill" || !res.Passed() {
		dumps, _ := filepath.Glob(filepath.Join(frDir, "*.json"))
		for _, d := range dumps {
			if rel, err := filepath.Rel(r.OutDir, d); err == nil {
				res.FlightRecDumps = append(res.FlightRecDumps, rel)
			} else {
				res.FlightRecDumps = append(res.FlightRecDumps, d)
			}
		}
	}

	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(cellDir, "result.json"), append(data, '\n'), 0o644)
	}
	return res
}

// driveIngest delivers the cell's journal through whatever gateway
// currently hosts the stream, paced by the workload's load curve. After
// a gateway death it reconnects and resends from the top (the
// at-least-once producer protocol); the rebuilt tenant floors absorb the
// acknowledged prefix as duplicates.
func driveIngest(cl *procharness.Cluster, workload string, s *Spec) error {
	def := workloads[workload]
	journal := make([]ingest.Record, s.Events)
	for j := range journal {
		key := uint64(j)
		journal[j] = ingest.Record{Key: key, Payload: operator.EncodeValue(key)}
	}
	if _, err := cl.Gateways.Wait(ingestStream, 15*time.Second); err != nil {
		return err
	}
	baseGap := time.Duration(float64(ingestBatch) / float64(s.Rate) * float64(time.Second))
	deadline := time.Now().Add(s.Timeout.D())
	for time.Now().Before(deadline) {
		reg, _ := cl.Gateways.Get(ingestStream)
		c := ingest.NewClient(reg.Addr, ingestStream, ingest.ClientOptions{
			Token:      "tok-0",
			Backoff:    10 * time.Millisecond,
			MaxElapsed: 4 * time.Second,
		})
		err := func() error {
			for off := 0; off < len(journal); off += ingestBatch {
				end := off + ingestBatch
				if end > len(journal) {
					end = len(journal)
				}
				if err := c.Send(journal[off:end]); err != nil {
					return err
				}
				gap := baseGap
				if def.curve != nil {
					gap = time.Duration(float64(baseGap) * def.curve(float64(off)/float64(len(journal))))
				}
				time.Sleep(gap)
			}
			return nil
		}()
		c.Close()
		if err == nil {
			return nil
		}
		// Wait for the stream to re-register on a survivor, then resend.
		waitUntil := time.Now().Add(10 * time.Second)
		for time.Now().Before(waitUntil) {
			if cur, _ := cl.Gateways.Get(ingestStream); cur.Gen != reg.Gen {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return fmt.Errorf("campaign: ingest journal not delivered within the cell timeout")
}

// sanitizeName maps a cell name to a filesystem-safe directory name.
func sanitizeName(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
