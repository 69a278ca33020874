// Package vclock provides the logical clocks used across the engine: a
// wall clock and a monotonic tick source for application timestamps.
//
// Physical-time reads taken during event processing are non-deterministic
// decisions: when an operator asks for the time through its context the
// value is logged (paper §2.2). The Clock interface lets tests and the
// recovery path substitute replayed values.
//
// Entry points:
//
//   - Clock is the timestamp source interface the engine consumes
//     (core.Options.Clock).
//   - NewWall returns the production Clock: wall time in milliseconds.
//   - NewTicker wraps a Clock into a strictly monotonic per-source tick
//     stream, so simultaneous events still get distinct, ordered
//     timestamps.
package vclock
