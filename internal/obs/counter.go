// Package obs is the wait-free observability plane of the reproduction: a
// metrics subsystem whose instrumentation cost does not perturb the wait-free
// hot paths it measures.
//
// The design transplants the paper's single-writer discipline — the same one
// that makes the Fetch&Add collect object of §3 cost one shared access — to
// metrics: every primitive (Counter, Histogram) gives each thread its own
// cache-line padded slot, and only thread i ever writes slot i. An update is
// therefore an atomic load and an atomic store of an uncontended line: no
// read-modify-write and no coherence traffic between writers. It is not
// free: on amd64 an atomic store is a locked XCHG, a full fence costing
// about what a LOCK-prefixed add does, so hot paths tally locally and add
// once per operation where they can. Readers aggregate all slots with
// atomic loads; a snapshot is not a linearizable cut across threads
// (exactly like the Stats of any per-thread counter scheme), but every
// per-slot value read is exact and monotone.
//
// All write-side methods are nil-receiver safe and become no-ops on a nil
// primitive, so instrumented code can keep unconditional calls on its hot
// path and pay only a predictable not-taken branch when observability is
// disabled (BenchmarkObsOverhead quantifies this).
package obs

import "repro/internal/pad"

// Counter is a per-thread monotone counter: n single-writer slots, one per
// process id, each on its own cache line. Thread i must be the only writer
// of slot i (the same contract as core.PSim process ids).
type Counter struct {
	slots []pad.Uint64
}

// NewCounter returns a counter with n per-thread slots (n rounds up to 1).
func NewCounter(n int) *Counter {
	if n < 1 {
		n = 1
	}
	return &Counter{slots: make([]pad.Uint64, n)}
}

// Inc adds 1 to slot id. No-op on a nil counter.
func (c *Counter) Inc(id int) { c.Add(id, 1) }

// Add adds d to slot id. Single-writer: the load+store pair need not be an
// atomic RMW — only thread id writes this slot, so nothing can interleave.
// Atomics are still used so concurrent readers see no torn values (Go memory
// model: no data race); the store is a locked XCHG on amd64 (see the
// package comment).
func (c *Counter) Add(id int, d uint64) {
	if c == nil {
		return
	}
	v := &c.slots[id].V
	v.Store(v.Load() + d)
}

// AddAtomic adds d to slot id with a real atomic RMW, for writers that have
// no stable process id (e.g. the line server's refusal count, bumped by
// whichever goroutine accepted the connection). Costs a LOCK-prefixed add; do not mix with
// Add on the same slot — the single-writer load+store would lose concurrent
// RMW updates. No-op on a nil counter.
func (c *Counter) AddAtomic(id int, d uint64) {
	if c == nil {
		return
	}
	c.slots[id].V.Add(d)
}

// Total sums all slots with atomic loads. Safe concurrently with writers;
// the result is monotone across calls but not a linearizable cut.
func (c *Counter) Total() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.slots {
		t += c.slots[i].V.Load()
	}
	return t
}

// Value returns slot id's current value.
func (c *Counter) Value(id int) uint64 {
	if c == nil {
		return 0
	}
	return c.slots[id].V.Load()
}

// Slots returns the number of per-thread slots.
func (c *Counter) Slots() int {
	if c == nil {
		return 0
	}
	return len(c.slots)
}

// Gauge is a single shared up/down value (e.g. open connections). Unlike
// Counter it has writers with no stable process id, so it uses one padded
// atomic word and real atomic adds — fine for control-plane rates (connection
// setup/teardown), not for per-operation hot paths.
type Gauge struct {
	v pad.Int64
}

// NewGauge returns a gauge at 0.
func NewGauge() *Gauge { return &Gauge{} }

// Add moves the gauge by d (negative to decrease). No-op on nil.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.V.Add(d)
}

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.V.Store(v)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.V.Load()
}
