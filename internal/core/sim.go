package core

import (
	"fmt"

	"repro/internal/collect"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/xatomic"
)

// OpBottom is the reserved "no operation announced" value (the paper's ⊥)
// in a Sim instance's collect object. Announced opcodes must be non-zero.
const OpBottom uint64 = 0

// Sim is the theoretical universal construction of Algorithm 1: one LL/SC
// object S holding ⟨applied[1..n], rvals[1..n], st⟩ and one SimCollect
// object Col announcing each process's pending operation.
//
// Operations are announced as d-bit opcodes (the collect object's component
// width); the sequential object is supplied as a pure function mapping
// (state, pid, opcode) to (new state, response). With nd ≤ 64 the collect is
// a single Fetch&Add word and every ApplyOp performs a CONSTANT number of
// shared memory accesses — 2 F&A updates + 2·(LL + collect + SC) = 8 — which
// is the paper's headline result (Theorem 3.1) beating Jayanti's Ω(log n)
// LL/SC lower bound. With nd > 64 the collect costs ⌈nd/64⌉ reads and the
// bound becomes O(nd/b), also per Theorem 3.1.
//
// Sim is wait-free: ApplyOp runs Attempt exactly twice after announcing and
// twice after withdrawing, never waiting on other processes.
type Sim[S, R any] struct {
	n, d  int
	apply func(st S, pid int, op uint64) (S, R)

	col      *collect.SimCollect
	updaters []*collect.Updater
	s        *xatomic.LLSC[simState[S, R]]

	counter *xatomic.AccessCounter // optional shared-access instrumentation
	stats   *StatsPlane
}

// simState is the contents of the LL/SC object (struct State of §3).
type simState[S, R any] struct {
	applied []bool
	rvals   []R
	st      S
}

// NewSim builds a theoretical Sim instance for n processes, opcode width d
// bits (1 ≤ d ≤ 64; opcode 0 is reserved as ⊥), initial state init and the
// sequential object's transition function apply. apply must be pure: it
// receives the state by value and returns the successor state.
func NewSim[S, R any](n, d int, init S, apply func(st S, pid int, op uint64) (S, R)) *Sim[S, R] {
	if n < 1 {
		panic("core: Sim needs n >= 1")
	}
	u := &Sim[S, R]{
		n: n, d: d,
		apply:    apply,
		col:      collect.NewSimCollect(n, d),
		updaters: make([]*collect.Updater, n),
		stats:    NewStatsPlane(n),
	}
	u.s = xatomic.NewLLSC(simState[S, R]{
		applied: make([]bool, n),
		rvals:   make([]R, n),
		st:      init,
	})
	return u
}

// SetAccessCounter attaches a shared-memory-access counter (Table 1
// instrumentation). Pass nil to detach. Not safe to call concurrently with
// ApplyOp.
func (u *Sim[S, R]) SetAccessCounter(c *xatomic.AccessCounter) { u.counter = c }

// Attach connects the instance's instrument (see PSim's Attach). Sim never
// recycles records, so only round, served and cas_fail events appear; each
// ApplyOp traces as one round event whose degree sums its (up to four) SC
// rounds. Call once, before the first operation.
func (u *Sim[S, R]) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	u.stats.Attach(reg, prefix, rec, tr)
}

// N returns the number of processes.
func (u *Sim[S, R]) N() int { return u.n }

// CollectWords returns the number of Fetch&Add words backing the collect
// object (the ⌈nd/b⌉ factor of Theorem 3.1).
func (u *Sim[S, R]) CollectWords() int { return u.col.Words() }

func (u *Sim[S, R]) updater(i int) *collect.Updater {
	if u.updaters[i] == nil {
		u.updaters[i] = u.col.Updater(i)
	}
	return u.updaters[i]
}

// ApplyOp announces opcode op (which must be non-zero and fit in d bits) for
// process i, runs the two-phase Attempt protocol of Algorithm 1, and returns
// the operation's response. Each process id must be driven by one goroutine.
func (u *Sim[S, R]) ApplyOp(i int, op uint64) R {
	if op == OpBottom {
		panic("core: opcode 0 is reserved as ⊥")
	}
	if u.d < 64 && op>>uint(u.d) != 0 {
		panic(fmt.Sprintf("core: opcode %#x exceeds %d bits", op, u.d))
	}
	upd := u.updater(i)
	op0 := u.stats.Start(i)

	upd.Update(op) // line 1: announce op
	SchedYield(i, PointAnnounce)
	u.countAccess(i, 1)
	combined := u.attempt(i) // line 2

	upd.Update(OpBottom) // line 3: withdraw the announcement
	u.countAccess(i, 1)
	combined += u.attempt(i) // line 4: eliminate the evidence of op

	rv := u.s.Read().rvals[i] // line 5
	u.countAccess(i, 1)
	u.stats.simDone(i, op0, combined)
	return rv
}

// attempt is Algorithm 1's Attempt: run the LL/collect/apply/SC round
// exactly twice (Observation 3.2 rests on both rounds executing). It
// returns the total combining degree of its successful SC rounds.
func (u *Sim[S, R]) attempt(i int) uint64 {
	st := u.stats
	total := uint64(0)
	ops := make([]uint64, u.n)
	for j := 0; j < 2; j++ {
		ls, tag := u.s.LL() // line 7
		SchedYield(i, PointCollect)
		u.countAccess(i, 1)
		u.col.CollectInto(ops) // line 8
		u.countAccess(i, uint64(u.col.Words()))

		// lines 9–13: local loop — apply every announced-but-unapplied
		// operation to a local copy of the state.
		ns := simState[S, R]{
			applied: append([]bool(nil), ls.applied...),
			rvals:   append([]R(nil), ls.rvals...),
			st:      ls.st,
		}
		combined := uint64(0)
		for q := 0; q < u.n; q++ {
			if ops[q] != OpBottom && !ns.applied[q] {
				ns.st, ns.rvals[q] = u.apply(ns.st, q, ops[q])
				combined++
			}
			ns.applied[q] = ops[q] != OpBottom
		}

		SchedYield(i, PointCAS)
		if u.s.SC(tag, ns) { // line 14
			st.simPublished(i, combined)
			total += combined
		} else {
			st.CASFailed(i, j, 0)
		}
		u.countAccess(i, 1)
	}
	return total
}

func (u *Sim[S, R]) countAccess(i int, n uint64) {
	u.counter.Add(i, n)
}

// Read returns the current simulated state (immutable by the purity
// contract of apply).
func (u *Sim[S, R]) Read() S { return u.s.Read().st }

// Stats returns aggregated combining statistics.
func (u *Sim[S, R]) Stats() Stats { return u.stats.Aggregate() }

// ResetStats zeroes the statistics counters.
func (u *Sim[S, R]) ResetStats() { u.stats.Reset() }

// simPublished records one of Sim's successful SC rounds: Sim publishes up
// to four times per ApplyOp, so its combining degrees are observed per round
// (under the operation's sampling decision), decoupled from its close.
func (p *StatsPlane) simPublished(i int, degree uint64) {
	p.CASSuccess.Inc(i)
	p.Combined.Add(i, degree)
	p.Rec.CombineObserved(i, degree)
}

// simDone closes a Sim operation: one round event if at least one of its SC
// rounds published (combined > 0), a served event if a helper applied it.
func (p *StatsPlane) simDone(i int, op Op, combined uint64) {
	p.Ops.Inc(i)
	p.Rec.OpDone(i, op.rec)
	if combined > 0 {
		p.Trace.OpCommit(i, op.tr, combined, 0, combined)
	} else {
		p.Trace.OpServed(i, op.tr)
	}
}
