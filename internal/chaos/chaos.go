// Package chaos is the runtime fault-injection control plane behind the
// /debug/chaos endpoint (the "chaos" debugserver section). It translates the
// endpoint's query parameters into the process-wide fault shims in
// internal/transport (slow/lossy/partitioned data-plane bridges) and
// internal/storage (slow disk), so the campaign runner can arm, adjust
// and clear faults on a live process at a declared trigger without the
// injected binary being anything but the real streammine.
//
// Parameters (all optional; absent parameters leave 0 / off):
//
//	net_delay=5ms       per-frame send stall on data-plane bridges
//	net_dial_delay=50ms stall before every bridge (re)dial
//	net_drop_pm=20      per-mille of bridge sends failed (1000 = partition)
//	disk_delay=2ms      per-stable-write stall in every storage pool
//	off=1               clear every fault (other parameters ignored)
//
// Applying a new configuration replaces the old one wholesale: faults are
// never merged, so a clear is always total. docs/CAMPAIGNS.md documents
// the fault inventory built on top of these knobs.
package chaos

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"streammine/internal/flightrec"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// Handle is the chaos section's POST action: nil (or empty) query
// values report the current state; non-empty values apply a new
// configuration and report the resulting state.
func Handle(q url.Values) (string, error) {
	if len(q) == 0 {
		return State(), nil
	}
	if err := Apply(q); err != nil {
		return "", err
	}
	return State(), nil
}

// Apply installs the fault configuration described by q, replacing any
// previous one.
func Apply(q url.Values) error {
	if q.Get("off") != "" {
		Clear()
		return nil
	}
	var net transport.Chaos
	var diskDelay time.Duration
	var err error
	if net.SendDelay, err = durationParam(q, "net_delay"); err != nil {
		return err
	}
	if net.DialDelay, err = durationParam(q, "net_dial_delay"); err != nil {
		return err
	}
	if diskDelay, err = durationParam(q, "disk_delay"); err != nil {
		return err
	}
	if v := q.Get("net_drop_pm"); v != "" {
		pm, err := strconv.Atoi(v)
		if err != nil || pm < 0 || pm > 1000 {
			return fmt.Errorf("chaos: net_drop_pm must be an integer in [0,1000], got %q", v)
		}
		net.DropPerMille = pm
	}
	transport.SetChaos(net)
	storage.SetChaosWriteDelay(diskDelay)
	flightrec.Recordf(flightrec.KindChaos, "arm %s", State())
	return nil
}

// Clear removes every installed fault.
func Clear() {
	transport.ClearChaos()
	storage.SetChaosWriteDelay(0)
	flightrec.Record(flightrec.KindChaos, "clear")
}

// State renders the active faults in the same key=value vocabulary the
// parameters use ("off" when nothing is installed), plus the cumulative
// injected-loss counter so pollers can see the lossy fault biting.
func State() string {
	net, netOn := transport.ActiveChaos()
	disk := storage.ChaosWriteDelay()
	if !netOn && disk == 0 {
		return "off"
	}
	s := ""
	if net.SendDelay > 0 {
		s += fmt.Sprintf("net_delay=%s ", net.SendDelay)
	}
	if net.DialDelay > 0 {
		s += fmt.Sprintf("net_dial_delay=%s ", net.DialDelay)
	}
	if net.DropPerMille > 0 {
		s += fmt.Sprintf("net_drop_pm=%d dropped=%d ", net.DropPerMille, transport.ChaosDrops())
	}
	if disk > 0 {
		s += fmt.Sprintf("disk_delay=%s ", disk)
	}
	return s[:len(s)-1]
}

func durationParam(q url.Values, key string) (time.Duration, error) {
	v := q.Get(key)
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("chaos: %s must be a non-negative duration (e.g. 5ms), got %q", key, v)
	}
	return d, nil
}
