package core

import (
	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/xatomic"
)

// StatsPlane is a construction instance's one instrument. It carries three
// channels behind one small event vocabulary:
//
//   - exact counters, one padded single-writer slot per process id per
//     counter (obs.Counter), always on — Stats(), Figure 2's degree of
//     helping and Table 1's shared-access count read them, and Attach
//     publishes the very same slots (all but Accesses, which has no metric
//     family yet), so observing never adds a second accounting plane to the
//     operation path;
//   - Rec, the sampled latency / combining-degree histograms (nil = off);
//   - Trace, the flight recorder (nil = off).
//
// Hot paths report what happened — Start, Committed, Served, Round,
// CASFailed, Recycled, BackoffGrew, Spliced, HazardOverflowed — and each
// event method updates every channel it concerns, so a site makes one call
// and a disabled channel costs one predictable nil branch inside it.
type StatsPlane struct {
	Ops        *obs.Counter // operations completed, by owning thread
	CASSuccess *obs.Counter // successful state-publish CAS/SC
	CASFail    *obs.Counter // failed state-publish CAS/SC
	Combined   *obs.Counter // operations applied while combining
	ServedBy   *obs.Counter // own ops completed by another thread's combine
	Accesses   *obs.Counter // shared-memory accesses (Table 1); unpublished

	Rec   *obs.SimRecorder // sampled distributions (nil = off); set by Attach
	Trace *trace.Tracer    // flight recorder (nil = off); set by Attach

	allocPools []allocAttachment
	attached   bool
}

// AllocAttacher is the slice of a memory-plane pool the stats plane needs in
// order to publish it: both alloc.Pool and alloc.Shared satisfy it.
type AllocAttacher interface {
	Attach(reg *obs.Registry, class string, tr *trace.Tracer)
}

type allocAttachment struct {
	class string
	pool  AllocAttacher
}

// AttachAllocPool records a memory-plane pool (internal/alloc) that Attach
// publishes and traces alongside the combining counters, under the fixed
// alloc_* families with class "<base>_<class>", where base is the prefix's
// name with any label block dropped — e.g. prefix "fmul" and class "state"
// yield alloc_blocks_total{class="fmul_state"}. Called by constructors.
func (p *StatsPlane) AttachAllocPool(class string, pool AllocAttacher) {
	p.allocPools = append(p.allocPools, allocAttachment{class: class, pool: pool})
}

// NewStatsPlane returns a zeroed plane for n process ids.
func NewStatsPlane(n int) *StatsPlane {
	return &StatsPlane{
		Ops:        obs.NewCounter(n),
		CASSuccess: obs.NewCounter(n),
		CASFail:    obs.NewCounter(n),
		Combined:   obs.NewCounter(n),
		ServedBy:   obs.NewCounter(n),
		Accesses:   obs.NewCounter(n),
	}
}

// Attach connects the plane's channels, once, before the first operation:
//
//   - reg (nil = unpublished) gets the counters under prefix:
//     <prefix>_ops_total, _cas_success_total, _cas_fail_total,
//     _combined_total, _served_by_total, plus the attached alloc pools. A
//     labeled prefix (obs.Labeled) keeps the label block trailing:
//     ingest{partition="3"} registers ingest_ops_total{partition="3"}.
//     Several planes may attach under one prefix (striped structures, a
//     queue's two ends); the registry sums them.
//   - rec (nil = off) records the sampled distributions. Several planes may
//     share one recorder: process id i is driven by one goroutine at a time,
//     so slot i keeps a single writer whichever plane it reports through.
//   - tr (nil = off) records events, shared on the same argument.
//
// A second Attach would register every counter twice, so it panics.
func (p *StatsPlane) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	if p.attached {
		panic("core: StatsPlane attached twice")
	}
	p.attached = true
	p.Rec, p.Trace = rec, tr
	reg.AttachCounter(obs.Join(prefix, "_ops_total"), p.Ops)
	reg.AttachCounter(obs.Join(prefix, "_cas_success_total"), p.CASSuccess)
	reg.AttachCounter(obs.Join(prefix, "_cas_fail_total"), p.CASFail)
	reg.AttachCounter(obs.Join(prefix, "_combined_total"), p.Combined)
	reg.AttachCounter(obs.Join(prefix, "_served_by_total"), p.ServedBy)
	base, _ := obs.SplitName(prefix)
	for _, a := range p.allocPools {
		a.pool.Attach(reg, base+"_"+a.class, tr)
	}
}

// Op is an operation's pair of sampling stamps, one per sampled channel:
// the recorder's and the flight recorder's, each 0 when that channel is off
// or did not sample the operation (no clock was read for it).
type Op struct{ rec, tr obs.Stamp }

// Act returns the popcount of the Act vector active for a round-event
// payload — computed only when the flight recorder sampled the operation.
func (o Op) Act(active xatomic.Snapshot) uint64 {
	if o.tr == 0 {
		return 0
	}
	return uint64(active.PopCount())
}

// Start opens process i's operation: both channels draw their 1-in-k
// sampling decision, and the flight recorder counts the announce for the
// watchdog.
func (p *StatsPlane) Start(i int) Op {
	return Op{p.Rec.Start(i), p.Trace.OpStart(i)}
}

// Committed closes an operation of own logical ops whose round process i
// published itself: the round applied degree announce slots carrying ops
// operations, out of an Act vector with act bits set (see Op.Act).
func (p *StatsPlane) Committed(i int, op Op, own, degree, act, ops uint64) {
	p.Ops.Add(i, own)
	p.CASSuccess.Inc(i)
	p.Combined.Add(i, ops)
	p.Rec.OpPublished(i, op.rec, degree)
	p.Trace.OpCommit(i, op.tr, degree, act, ops)
}

// Served closes an operation of own logical ops that another thread's
// round completed.
func (p *StatsPlane) Served(i int, op Op, own uint64) {
	p.Ops.Add(i, own)
	p.ServedBy.Add(i, own)
	p.Rec.OpDone(i, op.rec)
	p.Trace.OpServed(i, op.tr)
}

// Round records a further round published by an operation whose close was
// already recorded (L-Sim publishes up to three rounds per operation).
func (p *StatsPlane) Round(i int, degree, ops uint64) {
	p.CASSuccess.Inc(i)
	p.Combined.Add(i, ops)
	p.Trace.Instant(i, trace.KindRound, degree, ops)
}

// CASFailed records a failed publish in round attempt: the state CAS lost
// (cause 0), the bounded hazard acquisition was exhausted (1), or the round
// was abandoned because an announcer moved on (2).
func (p *StatsPlane) CASFailed(i, attempt int, cause uint64) {
	p.CASFail.Inc(i)
	p.Trace.Instant(i, trace.KindCASFail, uint64(attempt), cause)
}

// Recycled records where a round's record came from: the memory plane
// (fresh = false) or a heap allocation. resident is the handle's cache
// depth after the get; pool tells apart a construction's record kinds.
func (p *StatsPlane) Recycled(i int, fresh bool, resident int, pool uint64) {
	if fresh {
		// A miss pays an allocation, so the unsampled event is free by
		// comparison — and warmup misses make cache fill visible.
		p.Trace.Rare(i, trace.KindRecycleMiss, uint64(resident), pool)
		return
	}
	p.Trace.Instant(i, trace.KindRecycleHit, uint64(resident), pool)
}

// BackoffGrew widens process i's backoff window after a failed publish and
// records the growth (the paper's contention signal). It sits off the hot
// path: it runs only after a lost round.
func (p *StatsPlane) BackoffGrew(i int, bo *backoff.Adaptive) {
	if !bo.Grow() {
		return
	}
	if p.Rec != nil {
		p.Rec.Retries.Inc(i)
	}
	p.Trace.Rare(i, trace.KindBackoffGrow, uint64(bo.Window()), 0)
}

// Spliced records a queue batch hand-off: a dequeuer helped link an enqueue
// batch (helper = 1) or an enqueuer linked its own (0).
func (p *StatsPlane) Spliced(i int, helper uint64) {
	p.Trace.Instant(i, trace.KindSplice, helper, 0)
}

// HazardOverflowed records an anonymous reader growing hazard table tab's
// overflow list. Nil-safe: tables built without a plane record nothing.
func (p *StatsPlane) HazardOverflowed(tab uint64) {
	if p != nil {
		p.Trace.AnonInstant(trace.KindHazardOverflow, 0, tab)
	}
}

// Aggregate sums the per-thread slots into a Stats.
//
// Snapshot-only contract: Aggregate may run at any time — every slot read is
// an atomic load — but the result is a statistical snapshot, not a
// linearizable cut. Counters are summed one after another while writers keep
// writing, so derived identities (Ops == CASSuccess + ServedBy, say) can be
// transiently off by in-flight operations. Consumers that difference two
// snapshots must clamp at zero (obs.Registry.Delta already does): a Reset
// racing the window, or a slot read before/after a neighbour's update, can
// make an interval appear to shrink.
func (p *StatsPlane) Aggregate() Stats {
	s := Stats{
		Ops:            p.Ops.Total(),
		CASSuccesses:   p.CASSuccess.Total(),
		CASFailures:    p.CASFail.Total(),
		Combined:       p.Combined.Total(),
		ServedByOther:  p.ServedBy.Total(),
		SharedAccesses: p.Accesses.Total(),
	}
	if s.CASSuccesses > 0 {
		s.AvgHelping = float64(s.Combined) / float64(s.CASSuccesses)
	}
	return s
}

// Reset zeroes every counter with atomic stores. Memory-safe at any time
// (concurrent Aggregate reads either the old value or zero, never a torn
// word), but NOT atomic with respect to writers: the hot path's
// single-writer increment is a load+store pair, so an increment in flight
// during Reset can resurrect its pre-reset value, and a reset landing
// between two of Aggregate's counter reads yields a mixed-epoch snapshot.
// Treat Reset as a quiescent-point operation; for live windows, difference
// successive Aggregate/Snapshot values instead (obs.Registry.Delta clamps
// at zero, so a racing reset can never produce a negative rate).
func (p *StatsPlane) Reset() {
	p.Ops.Reset()
	p.CASSuccess.Reset()
	p.CASFail.Reset()
	p.Combined.Reset()
	p.ServedBy.Reset()
	p.Accesses.Reset()
}

// Stats aggregates the combining behaviour of a construction instance. The
// AverageHelping value is the paper's "average degree of helping" plotted in
// the right part of Figure 2: how many announced operations each successful
// state change applied.
type Stats struct {
	Ops            uint64  // total completed operations
	CASSuccesses   uint64  // total successful publishes
	CASFailures    uint64  // total failed publishes
	Combined       uint64  // total operations applied inside combines
	ServedByOther  uint64  // operations completed for a thread by a helper
	SharedAccesses uint64  // shared-memory accesses (Table 1; Sim, P-Sim, L-Sim)
	AvgHelping     float64 // Combined / CASSuccesses
}

// Add returns the element-wise sum of two Stats (AvgHelping recomputed), for
// structures built from several instances.
func (s Stats) Add(o Stats) Stats {
	r := Stats{
		Ops:            s.Ops + o.Ops,
		CASSuccesses:   s.CASSuccesses + o.CASSuccesses,
		CASFailures:    s.CASFailures + o.CASFailures,
		Combined:       s.Combined + o.Combined,
		ServedByOther:  s.ServedByOther + o.ServedByOther,
		SharedAccesses: s.SharedAccesses + o.SharedAccesses,
	}
	if r.CASSuccesses > 0 {
		r.AvgHelping = float64(r.Combined) / float64(r.CASSuccesses)
	}
	return r
}
