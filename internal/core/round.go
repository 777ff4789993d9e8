package core

import (
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/xatomic"
)

// HazardAttempts bounds a round's protected load of the state record. A
// failed attempt means a successful publish intervened, so that many
// failures imply that many publishes since the round began — enough for the
// Observation 3.2 fallback argument — and the round is consumed like a
// failed CAS (or a failed seq1/seq2 check in the pooled variant).
const HazardAttempts = 8

// RoundLoad is a Round's protected load of src into fixed slot i: Acquire
// with HazardAttempts tries, nil when every try raced a publish. solo (an
// instance of one process) makes it a plain load: the only writer's own
// record is never retired under it.
func (h *Hazards[T]) RoundLoad(i int, src *atomic.Pointer[T], solo bool) *T {
	if solo {
		return src.Load()
	}
	p, _ := h.Acquire(i, src, HazardAttempts)
	return p
}

// Round is one construction's record handling inside Algorithm 3's
// combining round, which Proc.Combine and Proc.Solo drive for P-Sim, the
// pooled P-Sim and both SimQueue ends. The driver owns the Act toggle and
// diff, the helping walk, the two-round bound, the fallback, the preemption
// points, the shared-access bill and the stats events; a Round, one per
// process, owns how a record is loaded, built and published, and keeps the
// loaded record, its successor and the caller's responses between calls.
// Each method runs at most once per round, except Serve, once per served
// process, so the hooks add no indirect call per operation.
type Round interface {
	// Load protect-loads the published record (Hazards.RoundLoad) and
	// returns its applied vector; ok = false when publishes raced the load.
	Load() (applied xatomic.Snapshot, ok bool)
	// Done runs when the caller's bit in the loaded applied vector agrees
	// with Act: its operations are applied. It takes the caller's responses
	// from the loaded record and releases it, or returns false to veto the
	// early return when the loaded copy may not be the published state.
	Done() bool
	// Build starts the successor of the loaded record, with applied vector
	// active.
	Build(active xatomic.Snapshot)
	// Serve applies process k's announced operations to the successor and
	// returns how many there were. ok = false abandons the round: k
	// re-announced, which takes a publish after Load, so the round's publish
	// is doomed anyway.
	Serve(k int) (ops uint64, ok bool)
	// Seal finishes the successor after the last Serve and copies the
	// caller's responses out of it: once published it may be recycled.
	Seal()
	// Publish installs the successor over the loaded record — a CAS, or a
	// plain store at n == 1 — and on success retires the loaded record.
	Publish() bool
	// Discard takes back a successor that was abandoned or lost its publish,
	// and drops any responses Seal copied out of it.
	Discard()
	// Fallback takes the caller's responses from the published record after
	// two failed rounds (Observation 3.2: the second publish that beat them
	// applied the caller's operations).
	Fallback()
}

// Proc is one process's side of the combining round: its Act bit toggler,
// its adaptive backoff, and the scratch vectors each round reads Act into
// and diffs against the loaded record's applied vector.
type Proc struct {
	i       int
	act     *xatomic.SharedBits
	st      *StatsPlane
	toggler *xatomic.Toggler
	bo      *backoff.Adaptive
	active  xatomic.Snapshot // last read of Act
	diffs   xatomic.Snapshot // applied XOR active
}

// NewProc returns process i's round state for an instance whose Act vector
// is act and whose events go to st. Backoff spans [lower, upper] delay-loop
// iterations; at n == 1 it is off, since no helper can exist to wait for.
func NewProc(act *xatomic.SharedBits, st *StatsPlane, i, lower, upper int) Proc {
	n := act.Len()
	if n == 1 {
		upper = 0
	}
	return Proc{
		i:       i,
		act:     act,
		st:      st,
		toggler: xatomic.NewToggler(act, i),
		bo:      backoff.NewAdaptive(lower, upper),
		active:  xatomic.NewSnapshot(n),
		diffs:   xatomic.NewSnapshot(n),
	}
}

// Combine runs Algorithm 3 for the caller's just-published announcement of
// m operations: yield at PointAnnounce, toggle its Act bit, back off, then
// at most two combining rounds, then the fallback. Every round yields at
// PointCollect after its load and at PointCAS before its publish. The
// operation's shared accesses — 2 for the announce and toggle, per round 2
// for the load, one per Act word, one per served process and one for the
// publish, and one for the fallback — are tallied and billed once, since
// each counter add is a locked store. A failed round records its cause: 0
// the publish lost, 1 the protected load failed, 2 the round was abandoned.
//
// Progress: everything before the fallback is bounded — two rounds, each
// serving at most n announced vectors of a bounded budget. With recycled
// records the fallback's read needs hazard protection, and a protection
// attempt fails only when a concurrent publish succeeds, so the fallback
// is lock-free (every retry is paid for by another operation completing)
// rather than strictly bounded.
func (p *Proc) Combine(h Round, op Op, m int) {
	i, st := p.i, p.st
	um := uint64(m)
	SchedYield(i, PointAnnounce)
	p.toggler.Toggle() // lines 2–3: toggle pi's bit in Act (one F&A)
	p.bo.Wait()        // line 4: back off so helpers accumulate work
	myWord, myMask := p.toggler.Word(), p.toggler.Mask()
	acc := uint64(2)

	for j := 0; j < 2; j++ { // lines 5–27: at most two Attempt rounds
		applied, ok := h.Load() // line 6: LL
		acc += 2
		if !ok {
			st.CASFailed(i, j, 1)
			continue
		}
		SchedYield(i, PointCollect)
		p.act.LoadInto(p.active) // line 9: read Act
		acc += uint64(p.act.Words())
		applied.XorInto(p.active, p.diffs)           // line 10: the processes not yet applied
		if p.diffs[myWord]&myMask == 0 && h.Done() { // line 12
			st.Accesses.Add(i, acc)
			st.Served(i, op, um)
			return
		}
		solo := p.diffs.IsOnlyBit(myWord, myMask)

		h.Build(p.active) // lines 8 and 14, into a private successor
		slots, ops, cause := uint64(0), uint64(0), uint64(0)
		for d := p.diffs; ; { // lines 15–19: help every process in diffs
			k := d.BitSearchFirst()
			if k < 0 {
				break
			}
			d.ClearBit(k)
			n, ok := h.Serve(k)
			if !ok {
				cause = 2
				break
			}
			acc++ // the O(k) announce reads of P-Sim
			slots++
			ops += n
		}
		if cause == 0 {
			h.Seal() // lines 20–21
			SchedYield(i, PointCAS)
			acc++
			if h.Publish() { // lines 22–26
				st.Accesses.Add(i, acc)
				st.Committed(i, op, um, slots, st.act(op, p.active), ops)
				if j == 0 || solo {
					p.bo.Shrink() // low contention: waiting was wasted
				}
				return
			}
		}
		h.Discard()
		st.CASFailed(i, j, cause)
		if j == 0 {
			st.BackoffGrew(i, p.bo) // line 13: contention detected — widen the window
			p.bo.Wait()
		}
	}

	// Lines 28–30: both rounds failed, so two successful publishes
	// intervened and the second applied the caller's operations (an
	// abandoned round or a failed load also witnesses a publish).
	h.Fallback()
	st.Accesses.Add(i, acc+1)
	st.Served(i, op, um)
}

// Solo is Combine for an instance of one process. The announce, the Act
// toggle, the backoff and the CAS coordinate with helpers, and at n == 1
// none can exist: one round loads the record, serves the caller's m
// operations and publishes with a plain store, billing 2 shared accesses.
// Act is never toggled, so active stays all zero, as applied does.
func (p *Proc) Solo(h Round, op Op, m int) {
	h.Load()
	h.Build(p.active)
	ops, _ := h.Serve(p.i)
	h.Seal()
	h.Publish()
	p.st.Accesses.Add(p.i, 2)
	p.st.Committed(p.i, op, uint64(m), 1, 1, ops)
}
