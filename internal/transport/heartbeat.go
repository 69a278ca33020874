package transport

import (
	"sync"
	"time"
)

// Heartbeater periodically sends MsgHeartbeat on a connection so the peer's
// Detector can monitor liveness. The paper's recovery protocol (§2.2)
// presumes fail-stop crash detection; timeout-based heartbeating is the
// standard mechanism.
type Heartbeater struct {
	conn     Conn
	interval time.Duration

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewHeartbeater starts heartbeating on conn every interval.
func NewHeartbeater(conn Conn, interval time.Duration) *Heartbeater {
	h := &Heartbeater{
		conn:     conn,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go h.loop()
	return h
}

func (h *Heartbeater) loop() {
	defer close(h.done)
	ticker := time.NewTicker(h.interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-ticker.C:
			if err := h.conn.Send(Message{Type: MsgHeartbeat}); err != nil {
				return // connection gone; the peer's detector will notice
			}
		}
	}
}

// Stop halts the heartbeat loop and waits for it to exit.
func (h *Heartbeater) Stop() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}

// Clock abstracts time for the Detector (tests inject a manual clock).
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Detector is a timeout-based failure detector over named peers. Each
// Observe resets the peer's deadline; Check (or the background sweeper)
// reports peers whose silence exceeded the timeout exactly once per
// down-transition.
type Detector struct {
	timeout time.Duration
	clock   Clock

	mu       sync.Mutex
	lastSeen map[string]time.Time
	down     map[string]bool
}

// NewDetector creates a detector that declares a peer down after timeout
// of silence.
func NewDetector(timeout time.Duration) *Detector {
	return &Detector{
		timeout:  timeout,
		clock:    realClock{},
		lastSeen: make(map[string]time.Time),
		down:     make(map[string]bool),
	}
}

// Observe records a liveness signal (heartbeat or any message) from peer.
// A down peer observed again is resurrected (and eligible for a future
// down notification).
func (d *Detector) Observe(peer string) {
	d.mu.Lock()
	d.lastSeen[peer] = d.clock.Now()
	d.down[peer] = false
	d.mu.Unlock()
}

// Check sweeps all peers and returns those that transitioned to down in
// this sweep.
func (d *Detector) Check() []string {
	now := d.clock.Now()
	var newlyDown []string
	d.mu.Lock()
	for peer, seen := range d.lastSeen {
		if d.down[peer] || now.Sub(seen) <= d.timeout {
			continue
		}
		d.down[peer] = true
		newlyDown = append(newlyDown, peer)
	}
	d.mu.Unlock()
	countHeartbeatMisses(len(newlyDown))
	return newlyDown
}

// Alive reports whether peer is currently considered alive. Unknown peers
// are not alive.
func (d *Detector) Alive(peer string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen, ok := d.lastSeen[peer]
	if !ok || d.down[peer] {
		return false
	}
	return d.clock.Now().Sub(seen) <= d.timeout
}

// LastSeen returns the time of the last liveness signal from peer. The
// recovery profiler anchors the detect phase here: last heartbeat →
// declared down is the detection window.
func (d *Detector) LastSeen(peer string) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen, ok := d.lastSeen[peer]
	return seen, ok
}
