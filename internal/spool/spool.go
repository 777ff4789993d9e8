// Package spool is a segmented in-memory log driven entirely through the
// P-Sim universal construction (internal/core). The sequential object under
// the UC is an append log — generic over its entry type since the telemetry
// timeline (internal/obs/timeline) reuses it for metric samples — whose
// state is a bounded ring of SEALED segments plus one ACTIVE segment being
// filled:
//
//	sealed (immutable, shared)          active (private per clone)
//	[seg0][seg1][seg2] ............ [ entries being appended ]
//	 ^ low watermark                                ^ next offset
//
// Every entry receives a globally contiguous uint64 offset at its
// linearization point, so the retained range is always one interval
// [LowWater, End): consumers address the log by offset, and a cursor below
// the low watermark has simply lost entries to retention (a gap the reader
// can observe and count, never silently misorder).
//
// The split between sealed and active is what keeps the state cheap to
// clone under the construction's copy-publish discipline (paper §2, the
// clone in SIM's combining round):
//
//   - Sealed segments are immutable. The clone copies only the slice of
//     pointers; a thousand sealed entries cost eight bytes to clone. Because
//     a sealed segment is never written again, snapshots taken via
//     PSim.Read may share its backing array indefinitely.
//   - The active segment is deep-copied into the destination record's
//     recycled buffer (core.WithCloneInto), so steady-state appends reuse
//     the 2n+2 pooled buffers and allocate nothing.
//
// Sealing moves the active buffer — the publishing record's private copy —
// into a fresh Segment and gives the record a new buffer of SegEvents
// capacity, so exactly one owner ever existed for the sealed buffer before
// it froze and the record never regrows its successor. Retention (trim
// operations) drops whole sealed segments from the front and may also trim
// the active segment's prefix in place (the active copy is private to the
// clone, so an in-place shift is safe and allocation-free).
package spool

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Entry is the constraint on what a spool stores: any fixed-size value that
// can report its timestamp (unix nanos). The timestamp drives time-bucketed
// sealing and age-based retention; an entry type that never uses either may
// return 0.
type Entry interface {
	Stamp() int64
}

// Event is one ingested record — the entry type of the ingest pipeline.
// Producer+Seq identify the event at its source (per-producer sequence
// stamps assigned by internal/ingest); TS is the ingest timestamp (unix
// nanos) used for time-bucketed sealing and age-based retention; Payload is
// the application value.
type Event struct {
	Payload  uint64
	Seq      uint64
	TS       int64
	Producer int32
	_        int32 // keep the struct 8-byte aligned and 32 bytes wide
}

// Stamp returns the ingest timestamp, satisfying Entry.
func (e Event) Stamp() int64 { return e.TS }

// Segment is a sealed run of consecutive entries. Base is the global offset
// of Entries[0]; FirstTS/LastTS bound the timestamps it covers. Sealed
// segments are immutable: snapshots and the live state share them.
type Segment[E Entry] struct {
	Base    uint64
	FirstTS int64
	LastTS  int64
	Entries []E
}

// End returns the offset one past the segment's last entry.
func (s *Segment[E]) End() uint64 { return s.Base + uint64(len(s.Entries)) }

// Config sizes the spool.
type Config struct {
	// SegEvents seals the active segment after this many entries
	// (default 256). Smaller segments cost more seal allocations but make
	// clones — and therefore combining rounds — cheaper.
	SegEvents int
	// BucketNs additionally seals the active segment when the incoming
	// entry's timestamp is more than BucketNs past the segment's first —
	// the time bucketing that gives age-based retention whole segments to
	// drop. 0 disables time bucketing.
	BucketNs int64
	// MaxSegments bounds the sealed ring (default 64). Sealing past the
	// bound drops the oldest segment and advances the low watermark — the
	// spool is bounded even if no retention pass ever runs.
	MaxSegments int
	// PreallocEvents pre-sizes the active buffer of the initial state only,
	// so a workload that stays below that size never grows it mid-publish.
	// Recycled clone buffers grow on demand and keep what they reached;
	// every seal hands the sealing record a fresh buffer of SegEvents
	// capacity (at most MaxPreallocEvents). 0 means grow on demand; more
	// than MaxPreallocEvents panics.
	PreallocEvents int
}

// MaxPreallocEvents bounds Config.PreallocEvents. Preallocation is paid up
// front in one allocation, so an unbounded request (a segment size meant as
// "never seal") would reserve memory the spool never uses.
const MaxPreallocEvents = 1 << 20

func (c Config) withDefaults() Config {
	if c.SegEvents <= 0 {
		c.SegEvents = 256
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 64
	}
	return c
}

// state is the sequential append-log object applied under the UC.
type state[E Entry] struct {
	sealed []*Segment[E] // immutable segments, oldest first
	active Segment[E]    // deep-copied per clone; Entries may be nil
	next   uint64        // next offset to assign
	lwm    uint64        // oldest retained offset

	sealedTotal uint64 // segments sealed since birth
}

// opKind tags the operations of the sequential object.
type opKind uint8

const (
	opAppend   opKind = iota // Ev: append one entry
	opSeal                   // seal the active segment if non-empty
	opSealAged               // seal the active segment if it started before Arg (ns)
	opTrimAge                // drop sealed segments whose LastTS < int64(Arg)
	opTrimSegs               // drop oldest sealed segments beyond Arg remaining
	opTrimTo                 // drop entries below offset Arg (sealed whole-segment, active in place)
)

// Op is one operation of the append-log object. Build values with AppendOp
// and the Trim*/Seal* constructors; a retention pass submits several trim
// legs as ONE ApplyBatch vector, which the construction linearizes
// contiguously — expiry is itself a single linearizable step.
type Op[E Entry] struct {
	Kind opKind
	Arg  uint64
	Ev   E
}

// AppendOp appends ev; the op's result is the assigned offset.
func AppendOp[E Entry](ev E) Op[E] { return Op[E]{Kind: opAppend, Ev: ev} }

// SealOp seals the active segment if non-empty; result is the low watermark.
func SealOp[E Entry]() Op[E] { return Op[E]{Kind: opSeal} }

// SealAgedOp seals the active segment if its first entry predates cutoff
// (unix nanos) — so age-based retention can expire a quiescent tail.
func SealAgedOp[E Entry](cutoff int64) Op[E] { return Op[E]{Kind: opSealAged, Arg: uint64(cutoff)} }

// TrimAgeOp drops sealed segments wholly older than cutoff (unix nanos);
// result is the new low watermark.
func TrimAgeOp[E Entry](cutoff int64) Op[E] { return Op[E]{Kind: opTrimAge, Arg: uint64(cutoff)} }

// TrimSegmentsOp drops the oldest sealed segments until at most max remain;
// result is the new low watermark.
func TrimSegmentsOp[E Entry](max int) Op[E] { return Op[E]{Kind: opTrimSegs, Arg: uint64(max)} }

// TrimToOp drops every entry with offset below off (clamped to the retained
// range); result is the new low watermark. Sealed segments are dropped
// whole; the active segment is trimmed in place.
func TrimToOp[E Entry](off uint64) Op[E] { return Op[E]{Kind: opTrimTo, Arg: off} }

// Spool is the wait-free segmented log: a thin shell around core.PSim with
// per-process scratch vectors so batch appends build their op-vector
// without allocating.
type Spool[E Entry] struct {
	u       *core.PSim[state[E], Op[E], uint64]
	n       int
	cfg     Config
	threads []spoolThread[E]
}

// spoolThread is per-process scratch. Only process id i touches threads[i],
// mirroring the single-writer discipline of the construction.
type spoolThread[E Entry] struct {
	ops []Op[E]
	res []uint64
}

// New returns a spool for n process ids.
func New[E Entry](n int, cfg Config) *Spool[E] {
	if cfg.PreallocEvents > MaxPreallocEvents {
		panic(fmt.Sprintf("spool: PreallocEvents %d exceeds MaxPreallocEvents (%d)", cfg.PreallocEvents, MaxPreallocEvents))
	}
	cfg = cfg.withDefaults()
	s := &Spool[E]{n: n, cfg: cfg, threads: make([]spoolThread[E], n)}
	init := state[E]{}
	if cfg.PreallocEvents > 0 {
		init.active.Entries = make([]E, 0, cfg.PreallocEvents)
	}
	s.u = core.NewPSim[state[E], Op[E], uint64](n, init, s.apply,
		core.WithCloneInto[state[E]](cloneInto[E]))
	return s
}

// NewEvents returns an event spool for n process ids — the ingest
// pipeline's instantiation, kept as a named constructor so call sites read
// naturally.
func NewEvents(n int, cfg Config) *Spool[Event] { return New[Event](n, cfg) }

// cloneInto is the construction's state clone: sealed-segment pointers are
// shared (immutable), the active segment is deep-copied into the
// destination record's recycled buffer.
func cloneInto[E Entry](dst, src *state[E]) {
	dst.sealed = append(dst.sealed[:0], src.sealed...)
	dst.active.Base = src.active.Base
	dst.active.FirstTS = src.active.FirstTS
	dst.active.LastTS = src.active.LastTS
	dst.active.Entries = append(dst.active.Entries[:0], src.active.Entries...)
	dst.next = src.next
	dst.lwm = src.lwm
	dst.sealedTotal = src.sealedTotal
}

// apply is the sequential specification run by the combiner.
func (s *Spool[E]) apply(st *state[E], _ int, op Op[E]) uint64 {
	switch op.Kind {
	case opAppend:
		ev := op.Ev
		ts := ev.Stamp()
		if len(st.active.Entries) > 0 &&
			(len(st.active.Entries) >= s.cfg.SegEvents ||
				(s.cfg.BucketNs > 0 && ts-st.active.FirstTS >= s.cfg.BucketNs)) {
			s.seal(st)
		}
		off := st.next
		if len(st.active.Entries) == 0 {
			st.active.Base = off
			st.active.FirstTS = ts
		}
		st.active.Entries = append(st.active.Entries, ev)
		st.active.LastTS = ts
		st.next = off + 1
		s.reckonLWM(st) // sealing may have dropped a ring-bound segment
		return off
	case opSeal:
		if len(st.active.Entries) > 0 {
			s.seal(st)
		}
	case opSealAged:
		if len(st.active.Entries) > 0 && st.active.FirstTS < int64(op.Arg) {
			s.seal(st)
		}
	case opTrimAge:
		for len(st.sealed) > 0 && st.sealed[0].LastTS < int64(op.Arg) {
			s.dropOldest(st)
		}
	case opTrimSegs:
		for len(st.sealed) > int(op.Arg) {
			s.dropOldest(st)
		}
	case opTrimTo:
		for len(st.sealed) > 0 && st.sealed[0].End() <= op.Arg {
			s.dropOldest(st)
		}
		if len(st.sealed) == 0 && op.Arg > st.active.Base && len(st.active.Entries) > 0 {
			k := op.Arg - st.active.Base
			if k > uint64(len(st.active.Entries)) {
				k = uint64(len(st.active.Entries))
			}
			// The active copy is private to this clone: shift in place.
			n := copy(st.active.Entries, st.active.Entries[k:])
			st.active.Entries = st.active.Entries[:n]
			st.active.Base += k
			if n > 0 {
				st.active.FirstTS = st.active.Entries[0].Stamp()
			}
		}
	}
	s.reckonLWM(st)
	return st.lwm
}

// seal freezes the active segment. The publishing clone is the buffer's
// only owner, so handing it to the (immutable) Segment is safe; the record
// gets one fresh buffer sized for a whole segment, which later rounds on it
// reuse instead of regrowing one from nil by doubling.
func (s *Spool[E]) seal(st *state[E]) {
	seg := &Segment[E]{
		Base:    st.active.Base,
		FirstTS: st.active.FirstTS,
		LastTS:  st.active.LastTS,
		Entries: st.active.Entries,
	}
	st.sealed = append(st.sealed, seg)
	st.sealedTotal++
	st.active = Segment[E]{Base: st.next, Entries: make([]E, 0, min(s.cfg.SegEvents, MaxPreallocEvents))}
	for len(st.sealed) > s.cfg.MaxSegments {
		s.dropOldest(st)
	}
}

// dropOldest expires the oldest sealed segment.
func (s *Spool[E]) dropOldest(st *state[E]) {
	st.sealed[0] = nil // release the segment even while the slice head advances
	st.sealed = st.sealed[1:]
}

// reckonLWM recomputes the low watermark after any structural change.
func (s *Spool[E]) reckonLWM(st *state[E]) {
	switch {
	case len(st.sealed) > 0:
		st.lwm = st.sealed[0].Base
	case len(st.active.Entries) > 0:
		st.lwm = st.active.Base
	default:
		st.lwm = st.next
	}
}

// Append appends one entry on behalf of process id, returning its offset.
func (s *Spool[E]) Append(id int, ev E) uint64 {
	return s.u.Apply(id, AppendOp(ev))
}

// AppendBatch appends evs as one operation vector (a single announce slot —
// the paper's batching lever) and appends the assigned offsets to offs.
func (s *Spool[E]) AppendBatch(id int, evs []E, offs []uint64) []uint64 {
	t := &s.threads[id]
	t.ops = t.ops[:0]
	for _, ev := range evs {
		t.ops = append(t.ops, AppendOp(ev))
	}
	return s.u.ApplyBatch(id, t.ops, offs)
}

// Do submits an arbitrary op-vector as ONE ApplyBatch call: all legs
// linearize contiguously. It returns the result of the last leg (for trim
// vectors, the final low watermark). This is the entry point retention
// passes use to make expiry a single linearizable step.
func (s *Spool[E]) Do(id int, ops ...Op[E]) uint64 {
	t := &s.threads[id]
	t.res = s.u.ApplyBatch(id, ops, t.res[:0])
	if len(t.res) == 0 {
		return 0
	}
	return t.res[len(t.res)-1]
}

// Seal forces the active segment to seal (e.g. before a shutdown snapshot).
func (s *Spool[E]) Seal(id int) uint64 { return s.u.Apply(id, SealOp[E]()) }

// Snapshot returns a consistent view of the log via PSim.Read: a
// hazard-protected lock-free read that never announces an operation, so
// readers never block writers (and need no process id). A consumer that
// only copies entries out should call Read, which skips the clone.
func (s *Spool[E]) Snapshot() View[E] { return View[E]{st: s.u.Read()} }

// Read copies up to max entries starting at offset cursor into out, with
// exactly Snapshot().Read's results, but reads the live state in place
// under PSim.ReadFunc instead of cloning the active segment and the sealed
// pointers first. Allocation-free when out has room for max entries.
func (s *Spool[E]) Read(cursor uint64, max int, out []E) (evs []E, next uint64, skipped uint64) {
	s.u.ReadFunc(func(st *state[E]) { evs, next, skipped = readState(st, cursor, max, out) })
	return evs, next, skipped
}

// N returns the number of process ids.
func (s *Spool[E]) N() int { return s.n }

// Attach connects the underlying construction's instrument (see
// core.PSim.Attach). Call once, before any operation.
func (s *Spool[E]) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	s.u.Attach(reg, prefix, rec, tr)
}

// Stats returns the construction's combining statistics.
func (s *Spool[E]) Stats() core.Stats { return s.u.Stats() }

// Name identifies the implementation to the harness.
func (s *Spool[E]) Name() string { return "Spool" }
