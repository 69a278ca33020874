package procharness

import (
	"bufio"
	"os/exec"
	"strings"
)

// scan wires a process's combined stdout/stderr through sift (the
// harness's stdout contracts). It must run before cmd.Start.
func (c *Cluster) scan(cmd *exec.Cmd, proc string) error {
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = cmd.Stdout
	go func() {
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			c.sift(proc, sc.Text())
		}
	}()
	return nil
}

const (
	coordPrefix   = "coordinator on "
	debugPrefix   = "debug server on http://"
	gatewayMarker = `ingest source "`
	gatewayInfix  = `" accepting on `
)

// sift applies the stdout contracts listed in the package comment.
func (c *Cluster) sift(proc, line string) {
	if rest, ok := strings.CutPrefix(line, coordPrefix); ok {
		if i := strings.IndexByte(rest, ','); i >= 0 {
			select {
			case c.coordAddrCh <- rest[:i]:
			default:
			}
		}
		return
	}
	if rest, ok := strings.CutPrefix(line, debugPrefix); ok {
		if i := strings.IndexByte(rest, ' '); i >= 0 {
			rest = rest[:i]
		}
		c.mu.Lock()
		c.debugAddrs[proc] = rest
		c.mu.Unlock()
		return
	}
	if fields := strings.Fields(line); len(fields) == 3 && fields[0] == "SINK" {
		c.Sinks.Record(proc, fields[2])
		return
	}
	// `[wN] partition 0: ingest source "src" accepting on ADDR`
	if i := strings.Index(line, gatewayMarker); i >= 0 {
		rest := line[i+len(gatewayMarker):]
		if j := strings.Index(rest, gatewayInfix); j >= 0 {
			stream := rest[:j]
			addr := strings.TrimSpace(rest[j+len(gatewayInfix):])
			c.Gateways.set(stream, proc, addr)
		}
	}
}
