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
// Start draws one sampling decision per operation and both sampled channels
// follow it: Rec's 1-in-k draw when a recorder is attached, every operation
// when none is. The clock is read once at the start, into the operation's
// Op, and once at the close (obs.End), for both channels.
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
// order to publish it; alloc.Pool satisfies it.
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

// Op is an operation's sampling stamp, shared by both sampled channels: its
// start time, or 0 when the plane did not sample it or neither channel is
// on (no clock was read for it).
type Op struct{ t0 obs.Stamp }

// Start opens process i's operation and draws its one sampling decision:
// the recorder's, or every operation when only the flight recorder is on.
// The flight recorder also counts the announce for the watchdog.
func (p *StatsPlane) Start(i int) Op {
	p.Trace.OpStart(i)
	if p.Rec != nil {
		return Op{p.Rec.Start(i)}
	}
	if p.Trace != nil {
		return Op{obs.Now()}
	}
	return Op{}
}

// instant records a per-round event of process i's current operation in the
// flight recorder if Start sampled the operation: the recorder's draw, or
// every operation without a recorder.
func (p *StatsPlane) instant(i int, k trace.Kind, a, b uint64) {
	if p.Trace != nil && (p.Rec == nil || p.Rec.Sampled(i)) {
		p.Trace.Instant(i, k, a, b)
	}
}

// act returns the popcount of the Act vector active for op's round-event
// payload — computed only when the flight recorder will record the event.
func (p *StatsPlane) act(op Op, active xatomic.Snapshot) uint64 {
	if op.t0 == 0 || p.Trace == nil {
		return 0
	}
	return uint64(active.PopCount())
}

// Committed closes an operation of own logical ops whose round process i
// published itself: the round applied degree announce slots carrying ops
// operations, out of an Act vector with act bits set (see act).
func (p *StatsPlane) Committed(i int, op Op, own, degree, act, ops uint64) {
	p.Ops.Add(i, own)
	p.CASSuccess.Inc(i)
	p.Combined.Add(i, ops)
	t1 := obs.End(op.t0)
	p.Rec.OpPublished(i, op.t0, t1, degree)
	p.Trace.OpCommit(i, op.t0, t1, degree, act, ops)
}

// Served closes an operation of own logical ops that another thread's
// round completed.
func (p *StatsPlane) Served(i int, op Op, own uint64) {
	p.Ops.Add(i, own)
	p.ServedBy.Add(i, own)
	t1 := obs.End(op.t0)
	p.Rec.OpDone(i, op.t0, t1)
	p.Trace.OpServed(i, op.t0, t1)
}

// Round records a further round published by an operation whose close was
// already recorded (L-Sim publishes up to three rounds per operation).
func (p *StatsPlane) Round(i int, degree, ops uint64) {
	p.CASSuccess.Inc(i)
	p.Combined.Add(i, ops)
	p.instant(i, trace.KindRound, degree, ops)
}

// CASFailed records a failed publish in round attempt: the state CAS lost
// (cause 0), the bounded hazard acquisition was exhausted (1), or the round
// was abandoned because an announcer moved on (2).
func (p *StatsPlane) CASFailed(i, attempt int, cause uint64) {
	p.CASFail.Inc(i)
	p.instant(i, trace.KindCASFail, uint64(attempt), cause)
}

// Recycled records where a round's record came from: the memory plane
// (fresh = false) or a heap allocation. resident is the handle's cache
// depth after the get; pool tells apart a construction's record kinds.
func (p *StatsPlane) Recycled(i int, fresh bool, resident int, pool uint64) {
	if fresh {
		// A miss pays an allocation, so the unsampled event is free by
		// comparison — and warmup misses make cache fill visible.
		p.Trace.Instant(i, trace.KindRecycleMiss, uint64(resident), pool)
		return
	}
	p.instant(i, trace.KindRecycleHit, uint64(resident), pool)
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
	p.Trace.Instant(i, trace.KindBackoffGrow, uint64(bo.Window()), 0)
}

// Spliced records a queue batch hand-off: a dequeuer helped link an enqueue
// batch (helper = 1) or an enqueuer linked its own (0).
func (p *StatsPlane) Spliced(i int, helper uint64) {
	p.instant(i, trace.KindSplice, helper, 0)
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
// transiently off by in-flight operations. Every counter is monotone (no
// plane is ever reset: callers build a fresh instance per run), so two
// Aggregates taken in order never shrink, and differencing them
// (obs.Registry.Delta) yields the operations in between.
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
