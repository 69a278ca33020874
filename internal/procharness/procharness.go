// Package procharness orchestrates real multi-process streammine
// clusters — one coordinator plus N workers as separate OS processes
// over a shared state directory — for the e2e failover tests and the
// fault-recovery campaign runner (internal/campaign). It owns the
// process lifecycle (spawn, scrape, signal, reap) and the stdout
// contracts the binaries expose:
//
//	coordinator on ADDR, waiting for workers     control-plane address
//	debug server on http://ADDR (...)            per-process debug address
//	SINK <name> <id>                             one externalized event
//	ingest source "<stream>" accepting on ADDR   gateway registration
//
// The harness deliberately returns errors instead of taking *testing.T:
// tests wrap failures in t.Fatal, while the campaign runner converts
// them into per-cell verdicts without aborting the whole campaign.
package procharness

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// BuildBinary compiles pkg (a package path resolvable from dir, e.g.
// "." inside cmd/streammine or "streammine/cmd/streammine" anywhere in
// the module) into dir and returns the binary path.
func BuildBinary(dir, pkg string) (string, error) {
	bin := filepath.Join(dir, "streammine")
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
	}
	return bin, nil
}

// hbTimeout is every process's cluster heartbeat timeout: fast failure
// detection keeps drills short.
const hbTimeout = 500 * time.Millisecond

// Options configures one cluster run.
type Options struct {
	// Bin is the streammine binary (required; see BuildBinary).
	Bin string
	// Topology is the topology JSON content; the harness writes it into
	// Dir for the coordinator (required).
	Topology string
	// Dir is the scratch directory for the topology file and the shared
	// worker state directory (required; typically t.TempDir() or a
	// campaign cell directory).
	Dir string
	// Workers is the number of worker processes (default 2).
	Workers int
	// CoordArgs are appended to the coordinator invocation (e.g.
	// -debug-addr 127.0.0.1:0).
	CoordArgs []string
	// WorkerArgs are appended to every worker invocation (e.g. -chaos
	// -debug-addr 127.0.0.1:0, or the ingest gateway flags).
	WorkerArgs []string
	// TraceDir, when set, gives every process a -trace file
	// <TraceDir>/<proc>.jsonl for post-run lineage analysis.
	TraceDir string
}

// Cluster is a running coordinator+workers process group.
type Cluster struct {
	// Sinks aggregates every worker's SINK lines.
	Sinks *Sinks
	// Gateways tracks which worker's ingest gateway currently accepts
	// each stream.
	Gateways *Gateways
	// CoordAddr is the coordinator's control-plane address.
	CoordAddr string

	coord   *exec.Cmd
	workers map[string]*exec.Cmd

	mu         sync.Mutex
	debugAddrs map[string]string
	closed     bool

	coordAddrCh chan string
}

// Start writes the topology, spawns the coordinator, waits for its
// address, and spawns the workers (named w1..wN). On error everything
// already spawned is killed.
func Start(o Options) (*Cluster, error) {
	if o.Bin == "" || o.Topology == "" || o.Dir == "" {
		return nil, errors.New("procharness: Bin, Topology and Dir are required")
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	topoPath := filepath.Join(o.Dir, "topo.json")
	if err := os.WriteFile(topoPath, []byte(o.Topology), 0o644); err != nil {
		return nil, fmt.Errorf("procharness: write topology: %w", err)
	}
	traceArgs := func(proc string) []string {
		if o.TraceDir == "" {
			return nil
		}
		return []string{"-trace", filepath.Join(o.TraceDir, proc+".jsonl")}
	}

	c := &Cluster{
		Sinks:       NewSinks(),
		Gateways:    &Gateways{},
		workers:     make(map[string]*exec.Cmd, o.Workers),
		debugAddrs:  make(map[string]string),
		coordAddrCh: make(chan string, 1),
	}

	coordArgs := []string{"-coordinator", "127.0.0.1:0", "-topology", topoPath,
		"-hb-timeout", hbTimeout.String()}
	coordArgs = append(coordArgs, o.CoordArgs...)
	coordArgs = append(coordArgs, traceArgs("coordinator")...)
	c.coord = exec.Command(o.Bin, coordArgs...)
	if err := c.scan(c.coord, "coordinator"); err != nil {
		return nil, err
	}
	if err := c.coord.Start(); err != nil {
		return nil, fmt.Errorf("procharness: start coordinator: %w", err)
	}

	select {
	case c.CoordAddr = <-c.coordAddrCh:
	case <-time.After(10 * time.Second):
		c.Close()
		return nil, errors.New("procharness: coordinator never reported its address")
	}

	stateDir := filepath.Join(o.Dir, "state")
	for i := 0; i < o.Workers; i++ {
		name := fmt.Sprintf("w%d", i+1)
		args := []string{"-worker", "-join", c.CoordAddr, "-name", name,
			"-state-dir", stateDir, "-hb-timeout", hbTimeout.String()}
		args = append(args, o.WorkerArgs...)
		args = append(args, traceArgs(name)...)
		wk := exec.Command(o.Bin, args...)
		if err := c.scan(wk, name); err != nil {
			c.Close()
			return nil, err
		}
		if err := wk.Start(); err != nil {
			c.Close()
			return nil, fmt.Errorf("procharness: start %s: %w", name, err)
		}
		c.workers[name] = wk
	}
	return c, nil
}

// WorkerNames lists the worker process names (w1..wN).
func (c *Cluster) WorkerNames() []string {
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	return names
}

// KillWorker SIGKILLs the named worker — the paper's fail-stop fault.
func (c *Cluster) KillWorker(name string) error {
	wk, ok := c.workers[name]
	if !ok {
		return fmt.Errorf("procharness: no worker %q", name)
	}
	return wk.Process.Kill()
}

// SignalCoord delivers sig to the coordinator (SIGSTOP/SIGCONT for the
// coordinator-pause fault).
func (c *Cluster) SignalCoord(sig os.Signal) error {
	return c.coord.Process.Signal(sig)
}

// DebugAddr reports the scraped debug-server address of proc
// ("coordinator" or a worker name); ok is false until the process
// printed its registration line.
func (c *Cluster) DebugAddr(proc string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	addr, ok := c.debugAddrs[proc]
	return addr, ok
}

// WaitDebugAddr polls DebugAddr until the process reports it or the
// timeout elapses.
func (c *Cluster) WaitDebugAddr(proc string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if addr, ok := c.DebugAddr(proc); ok {
			return addr, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("procharness: %s never reported a debug address", proc)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// WaitDone waits for the coordinator to report the run complete (exit
// 0), then reaps the workers, giving each a grace period to flush its
// final SINK lines before being killed. It is the terminal step for
// closed-ended (synthetic-source) runs; ingest-fed runs never complete
// and use the Sinks wait helpers plus Close instead.
func (c *Cluster) WaitDone(timeout time.Duration) error {
	waitErr := make(chan error, 1)
	go func() { waitErr <- c.coord.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			return fmt.Errorf("procharness: coordinator exited: %w", err)
		}
	case <-time.After(timeout):
		return errors.New("procharness: cluster run did not complete")
	}
	for _, wk := range c.workers {
		done := make(chan struct{})
		go func() { _ = wk.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = wk.Process.Kill()
			<-done
		}
	}
	return nil
}

// Close kills every process in the cluster. It is idempotent and safe
// after WaitDone (killing a reaped process is a no-op error we ignore).
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	if c.coord != nil && c.coord.Process != nil {
		_ = c.coord.Process.Kill()
	}
	for _, wk := range c.workers {
		if wk.Process != nil {
			_ = wk.Process.Kill()
		}
	}
}
