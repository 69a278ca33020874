// Package core is the fixture's engine, where nothing may wait on a timer.
package core

import "time"

// Wait is used by main.
func Wait(done func() bool) {
	// A reference is a use as much as a call is.
	pause := time.Sleep
	for !done() {
		pause(time.Millisecond)
	}
}
