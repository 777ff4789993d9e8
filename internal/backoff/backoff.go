// Package backoff implements the contention-management schemes used across
// the reproduction: plain bounded exponential backoff (the lock-free CAS
// baseline and the Treiber stack use it) and the adaptive scheme of P-Sim
// (§4), which widens the window when a thread's CAS on the shared state
// fails — a failure means some other thread combined on its behalf, so
// waiting longer raises the degree of helping — and narrows it on success.
//
// Backoff is expressed in iterations of a delay loop rather than wall-clock
// sleeps, matching the paper's implementation. On an oversubscribed host
// (more goroutines than cores) a pure spin would starve the combiner, so
// every Wait yields to the Go scheduler once per call; this preserves the
// relative ordering of window sizes, which is all the algorithms rely on.
package backoff

import (
	"runtime"
	"sync/atomic"
)

// spinSink defeats dead-code elimination of the delay loop.
var spinSink atomic.Uint64

// spin burns roughly iters loop iterations.
func spin(iters int) {
	var s uint64
	for i := 0; i < iters; i++ {
		s += uint64(i)
	}
	spinSink.Add(s)
}

// Exp is a bounded exponential backoff. The zero value is unusable; use
// NewExp. Not safe for concurrent use — each goroutine owns one.
type Exp struct {
	min, max int
	cur      int
	rng      uint64
}

// NewExp returns an exponential backoff whose window doubles from min up to
// max. min must be ≥ 1 and max ≥ min.
func NewExp(min, max int) *Exp {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	return &Exp{min: min, max: max, cur: min, rng: 0x9E3779B97F4A7C15}
}

// Wait delays for a uniformly random number of iterations in [0, window),
// then doubles the window (saturating at max). Call after a failed CAS.
func (b *Exp) Wait() {
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	d := int(b.rng % uint64(b.cur))
	spin(d)
	runtime.Gosched()
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
}

// Reset shrinks the window back to min. Call after a success.
func (b *Exp) Reset() { b.cur = b.min }

// Window returns the current window size, for tests and stats.
func (b *Exp) Window() int { return b.cur }

// Adaptive is P-Sim's backoff: an upper bound that grows when the thread's
// operation was completed by a helper (its own CAS failed twice) and shrinks
// when the thread's first CAS succeeded (it waited longer than necessary).
// Each goroutine owns one.
type Adaptive struct {
	lower, upper int
	cur          int
	enabled      bool
}

// NewAdaptive returns an adaptive backoff bounded to [lower, upper]
// iterations. If upper <= 0 the backoff is disabled and Wait returns
// immediately (the paper notes P-Sim performs well even with no backoff;
// the ablation bench measures exactly that).
func NewAdaptive(lower, upper int) *Adaptive {
	if lower < 1 {
		lower = 1
	}
	enabled := upper > 0
	if upper < lower {
		upper = lower
	}
	return &Adaptive{lower: lower, upper: upper, cur: lower, enabled: enabled}
}

// Wait delays for the current window (Algorithm 3 line 4: the thread backs
// off right after announcing, so that by the time it attempts to combine,
// more operations have accumulated for it to help). Unlike Exp.Wait it does
// not yield to the scheduler on small windows: P-Sim never waits FOR another
// thread (it is wait-free), so the delay is pure pacing and a forced yield
// per operation would dominate the cost at low contention. Wide windows —
// the high-contention regime where helping is the point — still yield so an
// active combiner can run.
func (b *Adaptive) Wait() {
	if !b.enabled {
		return
	}
	spin(b.cur)
	if b.cur >= yieldThreshold {
		runtime.Gosched()
	}
}

// yieldThreshold is the adaptive window size above which Wait also yields
// the processor to let a combiner run.
const yieldThreshold = 256

// Grow widens the window; call when the operation was served by a helper
// (both CAS attempts failed — contention is high, so waiting more increases
// combining). It reports whether the backoff is enabled, i.e. whether there
// was a window to grow (core.StatsPlane.BackoffGrew records the event).
func (b *Adaptive) Grow() bool {
	if !b.enabled {
		return false
	}
	b.cur *= 2
	if b.cur > b.upper {
		b.cur = b.upper
	}
	return true
}

// Shrink narrows the window; call when the first CAS succeeded (contention
// is low, waiting was wasted time).
func (b *Adaptive) Shrink() {
	if !b.enabled {
		return
	}
	b.cur /= 2
	if b.cur < b.lower {
		b.cur = b.lower
	}
}

// Window returns the current window size.
func (b *Adaptive) Window() int { return b.cur }

// Enabled reports whether the backoff is active.
func (b *Adaptive) Enabled() bool { return b.enabled }
