package flow

import (
	"sync"
	"sync/atomic"
	"time"
)

// TokenBucket is a classic token-bucket rate limiter. It is driven by
// explicit timestamps so tests can use a fake clock.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a bucket that refills at rate tokens/second up
// to burst. The bucket starts full.
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// Take attempts to consume one token at the given instant. On failure it
// returns the duration until a token will be available at the current
// rate.
func (b *TokenBucket) Take(now time.Time) (ok bool, wait time.Duration) {
	return b.TakeN(now, 1)
}

// TakeN attempts to consume n tokens at once — one bucket charge for a
// whole batch. A batch larger than the bucket depth is admitted when the
// bucket is full, driving the level negative; the debt is paid back by
// future refills, so the sustained rate is still honored. On failure it
// returns the duration until the batch will fit at the current rate.
func (b *TokenBucket) TakeN(now time.Time, n int) (ok bool, wait time.Duration) {
	if n < 1 {
		n = 1
	}
	need := float64(n)
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= need || (need > b.burst && b.tokens >= b.burst) {
		b.tokens -= need
		return true, 0
	}
	if b.rate <= 0 {
		return false, time.Second
	}
	missing := need - b.tokens
	if need > b.burst {
		missing = b.burst - b.tokens
	}
	return false, time.Duration(missing / b.rate * float64(time.Second))
}

// SetRate changes the refill rate.
func (b *TokenBucket) SetRate(rate float64) {
	b.mu.Lock()
	b.rate = rate
	b.mu.Unlock()
}

// Rate returns the current refill rate.
func (b *TokenBucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// AIMD is an additive-increase/multiplicative-decrease controller over a
// rate. Each Observe call feeds one congestion sample: congested samples
// multiply the rate by the decrease factor, clear samples add the
// increase step. The output is clamped to [min, max].
type AIMD struct {
	mu   sync.Mutex
	rate float64
	min  float64
	max  float64
	step float64 // additive increase per clear sample
	beta float64 // multiplicative decrease on congestion
}

// NewAIMD returns a controller starting at max with the given bounds.
// step defaults to max/20 and beta to 0.5 when zero.
func NewAIMD(min, max, step, beta float64) *AIMD {
	if step <= 0 {
		step = max / 20
	}
	if beta <= 0 || beta >= 1 {
		beta = 0.5
	}
	if min <= 0 {
		min = max / 10
	}
	return &AIMD{rate: max, min: min, max: max, step: step, beta: beta}
}

// Observe feeds one congestion sample and returns the updated rate.
func (a *AIMD) Observe(congested bool) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if congested {
		a.rate *= a.beta
		if a.rate < a.min {
			a.rate = a.min
		}
	} else {
		a.rate += a.step
		if a.rate > a.max {
			a.rate = a.max
		}
	}
	return a.rate
}

// Outcome is the result of one admission attempt.
type Outcome int

const (
	// Admitted means the event may proceed into the engine.
	Admitted Outcome = iota
	// Shed means the event was dropped before admission. It was never
	// logged, so recovery semantics are untouched.
	Shed
	// Stopped means the admission controller was closed mid-wait.
	Stopped
)

// Admission combines a token bucket, an optional AIMD controller driven
// by downstream queue pressure, and a shed policy into the source-side
// admission decision.
type Admission struct {
	bucket *TokenBucket
	aimd   *AIMD // nil when adaptation is disabled
	shed   bool

	// pressure reports downstream congestion (true = congested). Sampled
	// once per pressureEvery admissions to keep the hot path cheap.
	pressure      func() bool
	pressureEvery int
	sinceSample   int
	sampleMu      sync.Mutex

	now   func() time.Time
	sleep func(d time.Duration, quit <-chan struct{}) bool

	quit     chan struct{}
	quitOnce sync.Once

	admitted atomic.Uint64
	shedded  atomic.Uint64
}

// NewAdmission builds an admission controller from Limits. Returns nil if
// the limits do not configure admission control.
func NewAdmission(l *Limits, pressure func() bool) *Admission {
	if l == nil || l.AdmitRate <= 0 {
		return nil
	}
	burst := l.AdmitBurst
	if burst <= 0 {
		burst = int(l.AdmitRate / 10)
		if burst < 1 {
			burst = 1
		}
	}
	a := &Admission{
		bucket:        NewTokenBucket(l.AdmitRate, burst),
		shed:          l.Shed,
		pressure:      pressure,
		pressureEvery: 16,
		now:           time.Now,
		sleep:         sleepInterruptible,
		quit:          make(chan struct{}),
	}
	if l.AIMD && pressure != nil {
		a.aimd = NewAIMD(0, l.AdmitRate, 0, 0)
	}
	return a
}

func sleepInterruptible(d time.Duration, quit <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-quit:
		return false
	}
}

// AdmitN decides the fate of a batch of n source events with one bucket
// charge and at most one pressure sample. With shedding enabled it never
// blocks: a batch that cannot take its tokens immediately is Shed, whole.
// Without shedding it blocks (interruptibly) until the tokens are
// available. Events in a shed batch were never logged, so recovery
// semantics are untouched.
func (a *Admission) AdmitN(n int) Outcome {
	if n < 1 {
		n = 1
	}
	for {
		select {
		case <-a.quit:
			return Stopped
		default:
		}
		a.adapt(n)
		ok, wait := a.bucket.TakeN(a.now(), n)
		if ok {
			a.admitted.Add(uint64(n))
			return Admitted
		}
		if a.shed {
			a.shedded.Add(uint64(n))
			return Shed
		}
		if !a.sleep(wait, a.quit) {
			return Stopped
		}
	}
}

// adapt samples downstream pressure every pressureEvery admitted events
// and retunes the bucket rate through the AIMD controller. n is the batch
// width of the current admission attempt.
func (a *Admission) adapt(n int) {
	if a.aimd == nil {
		return
	}
	a.sampleMu.Lock()
	a.sinceSample += n
	if a.sinceSample < a.pressureEvery {
		a.sampleMu.Unlock()
		return
	}
	a.sinceSample = 0
	a.sampleMu.Unlock()
	a.bucket.SetRate(a.aimd.Observe(a.pressure()))
}

// Close interrupts any blocked AdmitN calls; they return Stopped.
func (a *Admission) Close() {
	if a == nil {
		return
	}
	a.quitOnce.Do(func() { close(a.quit) })
}

// Admitted returns the number of events admitted so far.
func (a *Admission) Admitted() uint64 {
	if a == nil {
		return 0
	}
	return a.admitted.Load()
}

// Shedded returns the number of events dropped by the shed policy.
func (a *Admission) Shedded() uint64 {
	if a == nil {
		return 0
	}
	return a.shedded.Load()
}

// Rate returns the current admission rate (AIMD-adjusted when enabled).
func (a *Admission) Rate() float64 {
	if a == nil {
		return 0
	}
	return a.bucket.Rate()
}
