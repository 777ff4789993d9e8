// Package trace is the flight recorder of the observability plane: a
// wait-free, per-thread ring of typed events recording WHAT the combining
// machinery did — which process committed which round and how wide it was,
// when a publish CAS failed, when the backoff window grew, when the
// recycling ring hit or missed, when the anonymous hazard table overflowed,
// and when a queue batch was spliced. The metrics plane (package obs)
// answers "how much"; this package answers "what happened, in what order".
//
// The design carries the single-writer discipline one level up from
// counters to events:
//
//   - One ring per process id. Only the goroutine driving process i writes
//     ring i, so recording an event is a handful of uncontended atomic
//     stores — no RMW, no coherence traffic between writers, the same cost
//     profile as obs.Counter.
//   - Power-of-two capacity, overwrite-oldest. A full ring costs nothing:
//     the writer keeps going and the oldest events are lost, never the
//     writer's time. This is what preserves wait-freedom — a tracer can
//     never make an operation wait, block, or allocate.
//   - Mod-2 sequence stamps. Each slot carries a header word holding
//     2·seq+1 while the writer is mid-write and 2·seq+2 once the slot is
//     consistent. A concurrent Snapshot re-reads the header after copying
//     the payload and simply discards torn slots (odd header, or header
//     changed between the two reads) — the seqlock argument of the paper's
//     pooled records (Algorithm 3 line 11), applied per event slot.
//
// Round events are sampled with the same 1-in-k per-thread knob as
// obs.SimRecorder (SetSampleEvery; default obs.DefaultSampleEvery), since
// stamping a round needs the same clock reads the recorder rations. Rare
// events that already sit on a slow path — a recycling miss (which
// allocates), backoff growth (two failed CASes), hazard-table overflow
// (which allocates) — are recorded unconditionally. All methods are
// nil-receiver safe no-ops, so a nil *Tracer IS tracing disabled and
// instrumented hot paths pay one predictable branch.
//
// On top of the rings, every ring maintains two always-on progress
// counters — operations started and operations committed — which the
// Watchdog (watchdog.go) scans to flag threads whose announced operation
// has not completed within a round budget: the observable counterpart of
// the construction's wait-freedom bound.
package trace

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pad"
)

// Kind identifies the type of a recorded event.
type Kind uint8

const (
	// KindRound is a committed combining round: the recording process won
	// the publish CAS. A = degree of combining (announce slots applied), B =
	// popcount of the Act announce bit-vector when the round was built, C =
	// logical operations applied (each slot carries a vector, so C ≥ A; C/A
	// is the batch amplification on top of the combining degree).
	// Dur spans announce → commit, so a Chrome export renders it as a
	// complete per-pid track event.
	KindRound Kind = 1 + iota
	// KindServed is an operation completed by another thread's combine
	// (the recording process never published). Dur spans announce → return.
	KindServed
	// KindCASFail is a failed publish: the state CAS lost (B = 0), the
	// bounded hazard acquisition was exhausted by concurrent publishes
	// (B = 1), or the round was abandoned because a later round overtook
	// the state it read (B = 2). A = the attempt round index (0 or 1).
	KindCASFail
	// KindBackoffGrow is an adaptive-backoff window expansion (the thread's
	// publish failed twice — the paper's contention signal). A = the new
	// window size in spin iterations. Always recorded.
	KindBackoffGrow
	// KindRecycleHit is a combining round rebuilt into a recycled state
	// record. A = records resident in the ring after the pop.
	KindRecycleHit
	// KindRecycleMiss is a fresh state-record allocation: every retired
	// record was still hazard-protected (or the ring is warming up).
	// A = records resident in the ring. Always recorded.
	KindRecycleMiss
	// KindHazardOverflow is an anonymous hazard-slot overflow: a reader
	// found every claimable slot held and pushed a new one. Recorded in the
	// shared ring (no process id). Always recorded.
	KindHazardOverflow
	// KindSplice is a queue batch hand-off: a dequeuer helped link an
	// enqueue batch onto the shared list (A = 1) or an enqueuer spliced on
	// the fallback path (A = 0).
	KindSplice
	// KindAllocHandoff is a memory-plane chain exchange through the shared
	// pool: A = 0 for a take, 1 for a give, 2 for a drop to the GC (pool
	// full — the allocator's space bound at work). B = the chain length.
	// Recorded in the shared ring (handles outnumber process ids). Always
	// recorded — handoffs happen once per B block operations.
	KindAllocHandoff
	// KindAllocStarved is a guarded allocation that found every candidate
	// block hazard-protected and fell back to a fresh allocation. A = blocks
	// probed. Recorded in the shared ring. Always recorded.
	KindAllocStarved
)

// String returns the event kind's export name.
func (k Kind) String() string {
	switch k {
	case KindRound:
		return "round"
	case KindServed:
		return "served"
	case KindCASFail:
		return "cas_fail"
	case KindBackoffGrow:
		return "backoff_grow"
	case KindRecycleHit:
		return "recycle_hit"
	case KindRecycleMiss:
		return "recycle_miss"
	case KindHazardOverflow:
		return "hazard_overflow"
	case KindSplice:
		return "splice"
	case KindAllocHandoff:
		return "alloc_handoff"
	case KindAllocStarved:
		return "alloc_starved"
	}
	return "unknown"
}

// argNames returns the export labels of the kind's A, B, and C payload words
// ("" = not meaningful for this kind).
func (k Kind) argNames() (a, b, c string) {
	switch k {
	case KindRound:
		return "degree", "act", "ops"
	case KindCASFail:
		return "attempt", "cause", ""
	case KindBackoffGrow:
		return "window", "", ""
	case KindRecycleHit, KindRecycleMiss:
		return "resident", "", ""
	case KindSplice:
		return "helper", "", ""
	case KindAllocHandoff:
		return "dir", "chain", ""
	case KindAllocStarved:
		return "probed", "", ""
	}
	return "", "", ""
}

// AnonPid is the Pid reported for events recorded without a process id
// (KindHazardOverflow from anonymous readers).
const AnonPid = -1

// Event is one decoded flight-recorder event.
type Event struct {
	Pid     int       // recording process id, or AnonPid
	Kind    Kind      //
	Seq     uint64    // per-ring monotone event index (detects overwrites)
	Start   obs.Stamp // ns since the obs epoch (same clock as SimRecorder)
	Dur     int64     // ns; 0 for instant events
	A, B, C uint64    // kind-specific payload (see the Kind constants)
}

// slot is one ring slot. hdr is the mod-2 sequence stamp: 0 = never
// written, 2·seq+1 = write in progress, 2·seq+2 = consistent. The payload
// words are individually atomic so a racing Snapshot is race-detector-clean;
// consistency of the WHOLE slot comes from re-validating hdr.
type slot struct {
	hdr     atomic.Uint64
	kind    atomic.Uint64
	start   atomic.Int64
	dur     atomic.Int64
	a, b, c atomic.Uint64
}

// write records one event into the slot for sequence number seq.
func (s *slot) write(seq uint64, k Kind, start obs.Stamp, dur int64, a, b, c uint64) {
	s.hdr.Store(2*seq + 1) // open: odd marks the slot torn
	s.kind.Store(uint64(k))
	s.start.Store(int64(start))
	s.dur.Store(dur)
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.hdr.Store(2*seq + 2) // close: even and unique per reuse
}

// read decodes the slot if it is consistent. The header is read before and
// after the payload; any concurrent rewrite changes it (each reuse strictly
// increases hdr), so a torn copy is always discarded.
func (s *slot) read(pid int) (Event, bool) {
	h1 := s.hdr.Load()
	if h1 == 0 || h1&1 == 1 {
		return Event{}, false
	}
	ev := Event{
		Pid:   pid,
		Kind:  Kind(s.kind.Load()),
		Seq:   h1/2 - 1,
		Start: obs.Stamp(s.start.Load()),
		Dur:   s.dur.Load(),
		A:     s.a.Load(),
		B:     s.b.Load(),
		C:     s.c.Load(),
	}
	if s.hdr.Load() != h1 {
		return Event{}, false
	}
	return ev, true
}

// ring is one process id's event ring plus its private sampling state and
// always-on progress counters. pos and the sampling fields are owner-only
// (plain words); started/committed are read by the watchdog and snapshots,
// so they are atomic (single-writer load+store, like obs.Counter slots).
// The trailing pad keeps neighbouring rings' counters off one line.
type ring struct {
	slots     []slot
	pos       uint64 // next event sequence number (owner-only)
	sampleSeq uint64 // operations seen, for the 1-in-k gate (owner-only)
	sampled   bool   // current operation's sampling decision (owner-only)
	started   atomic.Uint64
	committed atomic.Uint64
	_         pad.CacheLinePad
}

func (r *ring) write(k Kind, start obs.Stamp, dur int64, a, b, c uint64) {
	r.slots[r.pos&uint64(len(r.slots)-1)].write(r.pos, k, start, dur, a, b, c)
	r.pos++
}

// DefaultCapacity is the default number of event slots per process ring.
const DefaultCapacity = 1024

// anonCapacity sizes the shared ring for id-less events (hazard overflows
// are bounded by the historical maximum of simultaneous anonymous readers,
// so a small ring never loses the interesting ones).
const anonCapacity = 64

// Tracer is a flight recorder for n process ids. The zero value is not
// usable; a nil *Tracer is the disabled recorder (every method no-ops).
type Tracer struct {
	rings []ring
	mask  uint64

	// anon is the shared ring for events with no process id. Writers claim
	// a sequence number with one Fetch&Add, then a slot with one CAS on its
	// header; a claim that loses (two writers lapped onto one slot) drops
	// the event rather than wait — wait-free, and torn-proof by the same
	// header protocol.
	anonPos   atomic.Uint64
	anonSlots []slot
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithCapacity sets the per-process ring capacity (rounded up to a power of
// two, min 16). Default DefaultCapacity.
func WithCapacity(c int) Option {
	return func(t *Tracer) {
		if c < 16 {
			c = 16
		}
		t.rings[0].slots = make([]slot, 1<<bits.Len(uint(c-1)))
	}
}

// WithSampleEvery records round events on every k-th operation per thread
// (k rounds up to a power of two; k <= 1 records every operation) — the
// same knob as obs.SimRecorder.SetSampleEvery.
func WithSampleEvery(k int) Option {
	return func(t *Tracer) { t.SetSampleEvery(k) }
}

// New returns a flight recorder for n process ids (n rounds up to 1).
func New(n int, opts ...Option) *Tracer {
	if n < 1 {
		n = 1
	}
	t := &Tracer{
		rings:     make([]ring, n),
		mask:      obs.DefaultSampleEvery - 1,
		anonSlots: make([]slot, anonCapacity),
	}
	t.rings[0].slots = make([]slot, DefaultCapacity)
	for _, o := range opts {
		o(t)
	}
	cap0 := len(t.rings[0].slots)
	for i := 1; i < n; i++ {
		t.rings[i].slots = make([]slot, cap0)
	}
	return t
}

// N returns the number of per-process rings.
func (t *Tracer) N() int {
	if t == nil {
		return 0
	}
	return len(t.rings)
}

// Capacity returns the per-process ring capacity.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.rings[0].slots)
}

// SetSampleEvery records round events on every k-th operation per thread.
// Call before the first operation; not safe concurrently with recording.
func (t *Tracer) SetSampleEvery(k int) {
	if t == nil {
		return
	}
	p := uint64(1)
	for p < uint64(k) {
		p <<= 1
	}
	t.mask = p - 1
}

// OpStart opens an operation for process id: the started progress counter
// advances (always — the watchdog needs every announce) and the operation's
// sampling decision is drawn. Returns the operation's start stamp, or 0
// when the operation is unsampled (no clock was read) or the tracer is nil.
func (t *Tracer) OpStart(id int) obs.Stamp {
	if t == nil {
		return 0
	}
	r := &t.rings[id]
	v := &r.started
	v.Store(v.Load() + 1)
	hit := r.sampleSeq&t.mask == 0
	r.sampleSeq++
	r.sampled = hit
	if !hit {
		return 0
	}
	return obs.Now()
}

// OpCommit closes an operation that won its publish CAS, having combined
// `degree` announce slots — `ops` logical operations, counting each slot's
// whole announced vector — out of an Act vector with `act` bits set. The
// committed progress counter advances always; the round event is recorded
// only for sampled operations (t0 != 0).
func (t *Tracer) OpCommit(id int, t0 obs.Stamp, degree, act, ops uint64) {
	if t == nil {
		return
	}
	r := &t.rings[id]
	v := &r.committed
	v.Store(v.Load() + 1)
	if t0 == 0 {
		return
	}
	r.write(KindRound, t0, int64(obs.Now()-t0), degree, act, ops)
}

// OpServed closes an operation completed by another thread's combine.
func (t *Tracer) OpServed(id int, t0 obs.Stamp) {
	if t == nil {
		return
	}
	r := &t.rings[id]
	v := &r.committed
	v.Store(v.Load() + 1)
	if t0 == 0 {
		return
	}
	r.write(KindServed, t0, int64(obs.Now()-t0), 0, 0, 0)
}

// Instant records a mid-operation event — honouring the current operation's
// sampling decision, like SimRecorder.CombineObserved. Use for per-round
// events (CAS failures, recycling hits, splices) whose rate tracks the
// operation rate.
func (t *Tracer) Instant(id int, k Kind, a, b uint64) {
	if t == nil {
		return
	}
	r := &t.rings[id]
	if !r.sampled {
		return
	}
	r.write(k, obs.Now(), 0, a, b, 0)
}

// Rare records an event unconditionally (no sampling gate). Use for events
// that already sit on a slow path — a recycling miss pays an allocation,
// backoff growth two failed CASes — so the clock read is never the cost
// that matters.
func (t *Tracer) Rare(id int, k Kind, a, b uint64) {
	if t == nil {
		return
	}
	t.rings[id].write(k, obs.Now(), 0, a, b, 0)
}

// AnonInstant records an event with no process id into the shared ring
// (hazard-table overflow from an anonymous reader). One Fetch&Add claims a
// sequence number and one CAS claims the slot; if the CAS loses — another
// writer lapped the ring onto the same slot mid-write — the event is
// dropped rather than waited for.
func (t *Tracer) AnonInstant(k Kind, a, b uint64) {
	if t == nil {
		return
	}
	seq := t.anonPos.Add(1) - 1
	s := &t.anonSlots[seq&uint64(len(t.anonSlots)-1)]
	h := s.hdr.Load()
	if h&1 == 1 || !s.hdr.CompareAndSwap(h, 2*seq+1) {
		return // concurrent writer on this slot: drop, never wait
	}
	s.kind.Store(uint64(k))
	s.start.Store(int64(obs.Now()))
	s.dur.Store(0)
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(0)
	s.hdr.Store(2*seq + 2)
}

// Progress returns process id's operation progress counters: operations
// announced (started) and operations completed (committed, whether by the
// process's own publish or a helper's). started-committed is the number of
// in-flight operations (0 or 1 under the one-goroutine-per-id contract).
func (t *Tracer) Progress(id int) (started, committed uint64) {
	if t == nil {
		return 0, 0
	}
	r := &t.rings[id]
	return r.started.Load(), r.committed.Load()
}

// TotalCommitted sums the committed counter across all process ids — the
// system-wide round/operation completion count the watchdog budgets
// against.
func (t *Tracer) TotalCommitted() uint64 {
	if t == nil {
		return 0
	}
	var total uint64
	for i := range t.rings {
		total += t.rings[i].committed.Load()
	}
	return total
}

// SnapshotPid decodes process id's ring: consistent events only, in
// sequence order. Safe concurrently with the writer; slots being rewritten
// or overwritten during the scan are discarded by their header stamps.
func (t *Tracer) SnapshotPid(id int) []Event {
	if t == nil {
		return nil
	}
	r := &t.rings[id]
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev, ok := r.slots[i].read(id); ok {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Snapshot decodes every ring (per-process and shared) into one event list
// ordered by start stamp. Not a linearizable cross-ring cut — the same
// caveat as every per-thread scheme in this repository — but every returned
// event is internally consistent and per-pid sequence numbers are monotone.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for id := range t.rings {
		out = append(out, t.SnapshotPid(id)...)
	}
	for i := range t.anonSlots {
		if ev, ok := t.anonSlots[i].read(AnonPid); ok {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		return a.Seq < b.Seq
	})
	return out
}
