package obs

import (
	"time"

	"repro/internal/pad"
)

// DefaultSampleEvery is the default latency/combine sampling period: one in
// every 64 operations per thread reads the clock and records into the
// histograms. Counters are never sampled — a Sim-family instance counts every
// operation exactly in its core.StatsPlane — sampling only thins the
// *distribution* observations, whose two time.Now calls would otherwise
// dominate a sub-microsecond wait-free operation (BenchmarkObsOverhead
// quantifies this). Uniform 1-in-k sampling leaves quantile estimates
// unbiased; use SetSampleEvery(1) when exact per-op distributions matter more
// than hot-path cost (tests, network-bound servers). The recorder's draw is
// the operation's only one: core.StatsPlane hands the same decision and
// stamp to the flight recorder (obs/trace).
const DefaultSampleEvery = 64

// sampleSlot is one thread's private sampling state: written and read only by
// the owning thread, padded so neighbours don't share its line.
type sampleSlot struct {
	seq     uint64
	sampled bool
	_       [pad.CacheLineSize - 9]byte
}

// SimRecorder bundles the distribution metrics a Sim-family instance
// (core.PSim, core.Sim, queue.SimQueue, …) reports on top of its exact
// counters — the Rec channel of its core.StatsPlane: per-operation latency,
// the combining-degree
// distribution (Figure 2 right as a histogram, not just a mean), and backoff
// window growth events. All methods are nil-receiver safe no-ops, so a nil
// *SimRecorder IS the no-op recorder — instrumented code calls
// unconditionally and pays one predictable branch when observability is off.
type SimRecorder struct {
	OpLatency *Histogram // ns from announce to response (sampled)
	Combine   *Histogram // operations applied per successful publish (sampled)
	Retries   *Counter   // backoff Grow events (2nd-chance contention signal)

	mask    uint64 // sample when seq&mask == 0
	samples []sampleSlot
}

// NewSimRecorder registers a recorder's metrics under prefix in reg for n
// process ids: <prefix>_op_latency_ns, <prefix>_combine_degree,
// <prefix>_backoff_grow_total (a labeled prefix keeps its label block
// trailing, see Join). Sampling starts at DefaultSampleEvery. A nil reg
// yields the nil recorder: distributions nobody can read are not recorded.
func NewSimRecorder(reg *Registry, prefix string, n int) *SimRecorder {
	if reg == nil {
		return nil
	}
	if n < 1 {
		n = 1
	}
	return &SimRecorder{
		OpLatency: reg.Histogram(Join(prefix, "_op_latency_ns"), n),
		Combine:   reg.Histogram(Join(prefix, "_combine_degree"), n),
		Retries:   reg.Counter(Join(prefix, "_backoff_grow_total"), n),
		mask:      DefaultSampleEvery - 1,
		samples:   make([]sampleSlot, n),
	}
}

// SetSampleEvery records the distributions on every k-th operation per
// thread (k rounds up to a power of two; k <= 1 records every operation).
// Call before the first operation; not safe concurrently with recording.
func (r *SimRecorder) SetSampleEvery(k int) {
	if r == nil {
		return
	}
	p := uint64(1)
	for p < uint64(k) {
		p <<= 1
	}
	r.mask = p - 1
}

// Stamp is a sampled operation's start time: monotonic nanoseconds since the
// recorder epoch, or 0 for an unsampled operation. One machine word, so
// instrumented hot paths carry it in a register instead of spilling a
// three-word time.Time across their combining rounds.
type Stamp int64

// epoch anchors Stamps; only differences of Stamps are meaningful.
// time.Since(epoch) stays on the runtime's monotonic clock.
var epoch = time.Now()

// now returns a non-zero monotonic stamp (0 is reserved for "unsampled").
func now() Stamp {
	if s := Stamp(time.Since(epoch)); s != 0 {
		return s
	}
	return 1
}

// Now returns the current monotonic stamp on the shared obs clock. The
// flight recorder (obs/trace) stamps its events with it so trace timestamps
// and recorder latencies are directly comparable.
func Now() Stamp { return now() }

// End returns the closing stamp of an operation that started at t0: the
// current time when t0 is a sampled stamp, 0 (no clock read) when it is not.
// An operation's close reads it once and hands it to both sampled channels,
// so a recorded latency and the flight recorder's event duration agree.
func End(t0 Stamp) Stamp {
	if t0 == 0 {
		return 0
	}
	return now()
}

// Start opens an operation for process id and returns its start stamp — 0
// when this operation is not sampled (or the recorder is nil), in which case
// no clock was read and the matching OpDone/OpPublished is a no-op.
func (r *SimRecorder) Start(id int) Stamp {
	if r == nil {
		return 0
	}
	s := &r.samples[id]
	hit := s.seq&r.mask == 0
	s.seq++
	s.sampled = hit
	if !hit {
		return 0
	}
	return now()
}

// OpPublished closes a sampled operation, started at t0 and ended at t1
// (End(t0)), that completed by winning the publish CAS, having combined
// `combined` announced operations.
func (r *SimRecorder) OpPublished(id int, t0, t1 Stamp, combined uint64) {
	if r == nil || t0 == 0 {
		return
	}
	r.Combine.Record(id, combined)
	r.OpLatency.Record(id, uint64(t1-t0))
}

// OpDone closes a sampled operation, started at t0 and ended at t1, that
// completed without publishing — served by a helper's combine, or any path
// where no combining degree was observed.
func (r *SimRecorder) OpDone(id int, t0, t1 Stamp) {
	if r == nil || t0 == 0 {
		return
	}
	r.OpLatency.Record(id, uint64(t1-t0))
}

// Sampled reports whether process id's current operation (the one its last
// Start opened) was sampled. Not nil-safe: a caller without a recorder
// decides for itself.
func (r *SimRecorder) Sampled(id int) bool { return r.samples[id].sampled }

// CombineObserved records a combining degree observed mid-operation (core.Sim
// publishes up to four times per ApplyOp, so its degree observations are
// decoupled from operation completion). Honours the current operation's
// sampling decision.
func (r *SimRecorder) CombineObserved(id int, combined uint64) {
	if r == nil || !r.Sampled(id) {
		return
	}
	r.Combine.Record(id, combined)
}
