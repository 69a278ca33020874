package flow

import (
	"testing"
	"time"
)

// BenchmarkCreditGateAcquireGrant measures one acquire/grant round trip —
// the per-event overhead credit gating adds to a link send.
func BenchmarkCreditGateAcquireGrant(b *testing.B) {
	g := NewCreditGate(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Acquire()
		g.Grant(1)
	}
}

// BenchmarkTokenBucketTake measures admission-control cost per event at a
// rate high enough that the bucket never empties.
func BenchmarkTokenBucketTake(b *testing.B) {
	tb := NewTokenBucket(1e12, 1<<30)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Take(now.Add(time.Duration(i) * time.Microsecond))
	}
}

// BenchmarkSpecThrottleTryAdmit measures the uncontended slot take/return
// cycle every speculative task pays.
func BenchmarkSpecThrottleTryAdmit(b *testing.B) {
	s := NewSpecThrottle(&Limits{MaxOpenSpec: 64})
	head := func() bool { return false }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.TryAdmit(head)
		s.Release(false)
	}
}
