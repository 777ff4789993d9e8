package queue

import (
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/backoff"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
	"repro/internal/xatomic"
)

// SimQueue is the paper's wait-free queue (§5, Algorithms 4–6). Two
// independent instances of the Sim machinery are used — one synchronizing
// enqueuers, one synchronizing dequeuers — so the two ends of the queue
// proceed in parallel (the source of SimQueue's advantage over flat
// combining in Figure 3).
//
// An enqueue combiner builds a PRIVATE linked list with one node per helped
// operation, then publishes an EnqState carrying ⟨old tail, first node of the
// list, new tail⟩; the list is spliced onto the shared queue with a separate
// CAS on the old tail's next pointer (Algorithm 5 lines 18/34). Every
// enqueue splices the batch containing its operation before returning, so a
// completed enqueue is always visible to traversals; dequeuers additionally
// help splice the latest batch (Algorithm 6 lines 49–51) so in-flight
// batches become visible promptly.
//
// Batching: enqueuers announce operation VECTORS (collect.BatchAnnounce) —
// EnqueueBatch publishes a whole value vector under one toggle, and a
// combining round turns every announced vector into nodes of the same
// private list, so an enqueue batch splices onto the shared queue as one
// contiguous run. Dequeuers carry no values, so DequeueBatch announces just
// a COUNT in a single-writer padded word; combiners serve that many front
// values into the announcing process's response row (collect.Rows). Enqueue
// and Dequeue are batches of one through the same paths. Count words are
// read unchecked: a stale count can only be observed when the announcing
// process re-announced, which requires an intervening successful publish
// that dooms the reader's CAS anyway (the staleness argument of
// collect/batch.go, which also covers enqueue box revalidation failures).
//
// Memory discipline: like core.PSim, state records publish via CAS on an
// atomic pointer, and the hot path recycles them through the unified memory
// plane (internal/alloc). Retired EnqState/DeqState records go to per-thread
// two-stack handles and are reissued through alloc.Typed over the end's
// hazard table, so a record a stalled combiner still reads is never reused
// (see internal/core/recycle.go); chains of records move through a bounded
// shared pool when the thread that retires is not the thread that reuses
// (the CAS winner retires the record some OTHER thread published, so record
// ownership migrates constantly). Queue nodes live in a second pool with one
// handle per (end, process): failed combining rounds return their private
// node lists to the enqueue-side handle, and consumed nodes retire into the
// dequeue-side handle, whose full chains flow back to the enqueue side
// through the pool's shared slots — the enqueue+dequeue pair is
// allocation-free in steady state.
//
// Consumed nodes are reissued only once no stale reader can reach them
// (the era rule). Every record carries a monotone era, ns.era = ls.era + 1.
// A winning dequeue round that published era r retires its consumed run
// ls.head..ns.head (exclusive) together with e, the enqueue era read right
// after the publish; the run may go back to the plane only when
//
//   - every dequeue hazard slot is nil or holds a record of era ≥ r (no
//     stalled combiner can walk into the run: its head is at or past
//     ns.head), and
//   - every enqueue hazard slot is nil or holds a record of era > e (no
//     stale splice can CAS a recycled node's cleared next: the tail is
//     never strictly before the head, so a record of era > e cannot name
//     a retired node as oldTail), and
//   - enqP's era is > e, so no later acquire returns a record of era ≤ e.
//     While it is still e, the run goes back only up to the current
//     record's oldTail — the one retired node a later splice of that
//     record can touch — and the rest waits for a later retire.
//
// Runs that are not yet safe wait in a per-dequeuer limbo of at most
// limboRuns runs, rechecked by one O(3n) hazard scan per retire; past the
// bound the oldest run is dropped to the GC. Beyond the plane's
// O(threads × cache) bound and the limbo's, retired blocks are dropped to
// the GC — the Blelloch–Wei space guarantee. At n == 1 no stale reader can
// exist, so the solo paths retire consumed nodes straight into the plane.
//
// Progress: as in core.PSim, everything up to the Observation-3.2 fallback
// is bounded, but the fallback's hazard-protected read retries only when a
// concurrent publish succeeds — lock-free rather than strictly bounded
// (see internal/core/recycle.go).
type SimQueue[V any] struct {
	n int

	enqAnnounce *collect.BatchAnnounce[V]
	enqAct      *xatomic.SharedBits
	enqP        atomic.Pointer[enqState[V]]
	// enqHaz slots [0,n) protect enqueuers' combining reads; slots [n,2n)
	// protect dequeuers' splice-help reads of enqP.
	enqHaz *core.Hazards[enqState[V]]

	deqAct    *xatomic.SharedBits
	deqCounts []pad.Uint64 // announced dequeue counts, single-writer per pid
	deqP      atomic.Pointer[deqState[V]]
	deqHaz    *core.Hazards[deqState[V]]

	// The memory plane (internal/alloc): one guarded pool per record type and
	// one node pool shared by both ends — enqueuers own node handles [0,n),
	// dequeuers [n,2n), so consumed chains flow dequeue→enqueue through the
	// pool's shared slots (replacing the old spare-slot exchange at n == 1).
	estate *alloc.Typed[enqState[V]]
	dstate *alloc.Typed[deqState[V]]
	nodes  *alloc.Pool[qnode[V]]

	enqThreads []sqThread[V]
	deqThreads []sqThread[V]
	enqStats   *core.StatsPlane
	deqStats   *core.StatsPlane

	boLower, boUpper int
}

// batchBudget bounds how many operations one announcement may carry on
// either end; EnqueueBatch/DequeueBatch split longer requests into
// budget-sized chunks so one combining round's work stays bounded by
// n×batchBudget — the constant in the wait-freedom bound.
const batchBudget = 64

// qnode is a queue node; next is written once with CAS when the node's
// batch is spliced onto the shared list (and doubles as the memory plane's
// free-chain link while the node is retired).
type qnode[V any] struct {
	v    V
	next atomic.Pointer[qnode[V]]
}

// enqState is the enqueuers' State record (struct EnqState of Algorithm 4).
type enqState[V any] struct {
	applied  xatomic.Snapshot
	era      atomic.Uint64 // publish count; atomic: hazard scans read it
	oldTail  *qnode[V]     // tail of the queue when this batch was built
	lfirst   *qnode[V]     // first node of this batch's private list (nil: none)
	newTail  *qnode[V]     // last node of this batch — the tail after splicing
	nextFree *enqState[V]  // memory-plane chain link; unused while live
}

// deqState is the dequeuers' State record (struct DeqState of Algorithm 4).
// res holds Algorithm 4's return values as one collect.Rows row per
// process: the responses to its last served count, a row of one for a
// single Dequeue.
type deqState[V any] struct {
	applied  xatomic.Snapshot
	era      atomic.Uint64 // publish count; atomic: hazard scans read it
	head     *qnode[V]     // node whose next pointer is the queue front
	res      collect.Rows[deqRes[V]]
	nextFree *deqState[V] // memory-plane chain link; unused while live
}

type deqRes[V any] struct {
	v  V
	ok bool
}

type sqThread[V any] struct {
	toggler *xatomic.Toggler
	bo      *backoff.Adaptive
	active  xatomic.Snapshot
	diffs   xatomic.Snapshot
	eblk    *alloc.Handle[enqState[V]] // record cache (enq threads)
	dblk    *alloc.Handle[deqState[V]] // record cache (deq threads)
	nblk    *alloc.Handle[qnode[V]]    // node cache (both ends, disjoint ids)
	limbo   *nodeLimbo[V]              // consumed runs awaiting the era rule (deq threads, n > 1)
	lastCnt uint64                     // last announced dequeue count (deq threads)
	one     [1]V                       // Enqueue's batch of one
	oneOut  []V                        // Dequeue's response buffer
	inited  bool
}

// hazardAttempts mirrors core.PSim's bound: a failed hazard acquisition
// implies a concurrent successful publish, so a bounded number of attempts
// consumes the round the same way a failed CAS does.
const hazardAttempts = 8

// NewSimQueue returns an empty wait-free queue shared by n processes.
func NewSimQueue[V any](n int) *SimQueue[V] {
	sentinel := &qnode[V]{}
	q := &SimQueue[V]{
		n:           n,
		enqAnnounce: collect.NewBatchAnnounce[V](n),
		enqAct:      xatomic.NewSharedBits(n),
		enqHaz:      core.NewHazards[enqState[V]](2*n, 0, nil, 0),
		deqAct:      xatomic.NewSharedBits(n),
		deqCounts:   make([]pad.Uint64, n),
		deqHaz:      core.NewHazards[deqState[V]](n, 0, nil, 0),
		enqThreads:  make([]sqThread[V], n),
		deqThreads:  make([]sqThread[V], n),
		enqStats:    core.NewStatsPlane(n),
		deqStats:    core.NewStatsPlane(n),
		boLower:     1,
		boUpper:     core.DefaultBackoffUpper,
	}
	q.enqP.Store(&enqState[V]{
		applied: xatomic.NewSnapshot(n),
		newTail: sentinel,
	})
	q.deqP.Store(&deqState[V]{
		applied: xatomic.NewSnapshot(n),
		head:    sentinel,
		res:     collect.NewRows[deqRes[V]](n),
	})
	// Memory plane: record pools carry cache 2(n+1) per thread and reissue
	// through the end's hazard table; records are NOT reset at Put — a
	// retired record may still be hazard-protected, so it may only be
	// mutated at reissue, after the guard probe clears it.
	q.estate = alloc.NewTyped(alloc.NewPool(n, alloc.Config[enqState[V]]{
		New:     func() *enqState[V] { return &enqState[V]{applied: xatomic.NewSnapshot(n)} },
		Next:    func(s *enqState[V]) *enqState[V] { return s.nextFree },
		SetNext: func(s, nx *enqState[V]) { s.nextFree = nx },
		Chain:   n + 1,
		Slots:   n,
	}), q.enqHaz)
	q.dstate = alloc.NewTyped(alloc.NewPool(n, alloc.Config[deqState[V]]{
		New: func() *deqState[V] {
			return &deqState[V]{
				applied: xatomic.NewSnapshot(n),
				res:     collect.NewRows[deqRes[V]](n),
			}
		},
		Next:    func(s *deqState[V]) *deqState[V] { return s.nextFree },
		SetNext: func(s, nx *deqState[V]) { s.nextFree = nx },
		Chain:   n + 1,
		Slots:   n,
	}), q.deqHaz)
	// Nodes need no guard at Get: only never-published nodes and consumed
	// runs that passed the era rule (retireNodes) are ever Put. Reset clears
	// the value so parked nodes do not retain references.
	// The shared slots hold 2n chains of 32 nodes: enough to absorb a queue
	// backlog of tens of budget-sized batches draining back to the
	// enqueuers.
	q.nodes = alloc.NewPool(2*n, alloc.Config[qnode[V]]{
		New:     func() *qnode[V] { return &qnode[V]{} },
		Next:    func(nd *qnode[V]) *qnode[V] { return nd.next.Load() },
		SetNext: func(nd, nx *qnode[V]) { nd.next.Store(nx) },
		Reset:   func(nd *qnode[V]) { var zero V; nd.v = zero },
		Chain:   32,
		Slots:   max(4, 2*n),
	})
	q.enqStats.AttachAllocPool("enq_state", q.estate.Pool())
	q.enqStats.AttachAllocPool("node", q.nodes)
	q.deqStats.AttachAllocPool("deq_state", q.dstate.Pool())
	return q
}

// SetBackoff reconfigures the adaptive backoff bounds (upper 0 disables).
// Call before any operation.
func (q *SimQueue[V]) SetBackoff(lower, upper int) { q.boLower, q.boUpper = lower, upper }

// Attach connects the queue's instrument (see core.StatsPlane.Attach): both
// ends' exact counters and memory planes attach in reg under prefix (the
// registry sums the two ends, matching Stats), and both ends share rec and
// tr — process id i is driven by one goroutine at a time, whichever end it
// operates on. Batch hand-offs additionally appear as splice events. Any
// argument may be nil. Call once, before any operation.
func (q *SimQueue[V]) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	q.enqStats.Attach(reg, prefix, rec, tr)
	q.deqStats.Attach(reg, prefix, rec, tr)
}

func (q *SimQueue[V]) thread(ts []sqThread[V], act *xatomic.SharedBits, i int) *sqThread[V] {
	t := &ts[i]
	if !t.inited {
		t.toggler = xatomic.NewToggler(act, i)
		upper := q.boUpper
		if q.n == 1 {
			upper = 0 // no helper can exist: waiting is pure overhead
		}
		t.bo = backoff.NewAdaptive(q.boLower, upper)
		t.active = xatomic.NewSnapshot(q.n)
		t.diffs = xatomic.NewSnapshot(q.n)
		if &ts[0] == &q.enqThreads[0] {
			t.eblk = q.estate.Pool().Handle(i)
			t.nblk = q.nodes.Handle(i)
		} else {
			t.dblk = q.dstate.Pool().Handle(i)
			t.nblk = q.nodes.Handle(q.n + i)
			t.oneOut = make([]V, 0, 1)
			if q.n > 1 {
				t.limbo = &nodeLimbo[V]{}
			}
		}
		t.inited = true
	}
	return t
}

// node returns a queue node holding v from the thread's plane handle: its
// cached blocks, a chain taken from the pool's shared slots (how dequeue-side
// chains come back at n == 1), or a fresh allocation.
func (q *SimQueue[V]) node(t *sqThread[V], v V) *qnode[V] {
	nd, _ := t.nblk.Get() // Get clears the link; Reset cleared the value
	nd.v = v
	return nd
}

// freeNodes returns the private list first..last (never published — its CAS
// lost) to the thread's plane handle.
func (t *sqThread[V]) freeNodes(first, last *qnode[V]) {
	for nd := first; ; {
		nx := nd.next.Load() // Put overwrites the link: read it first
		end := nd == last
		t.nblk.Put(nd)
		if end {
			return
		}
		nd = nx
	}
}

// limboRuns bounds the consumed runs one dequeuer holds back under the era
// rule; a run is one winning round's consumption, at most n×batchBudget
// nodes.
const limboRuns = 16

// nodeRun is the run first..end (exclusive) consumed by a winning dequeue
// round that published era r; e is the enqueue era read right after it.
type nodeRun[V any] struct {
	first, end *qnode[V]
	r, e       uint64
}

// nodeLimbo is a dequeuer's FIFO ring of runs awaiting the era rule. Runs
// enter in retirement order, so r and e are non-decreasing along the ring
// and the runs that pass the rule always form a prefix.
type nodeLimbo[V any] struct {
	runs       [limboRuns]nodeRun[V]
	head, size int
}

// retireNodes parks the run first..end (exclusive) that process id's
// winning round consumed in publishing dequeue era r, then hands every
// parked run that now passes the era rule (see the type comment) to the
// dequeue-side plane handle. Wait-free: one bounded hazard acquire, one
// scan of the 3n hazard slots, at most limboRuns runs released.
func (q *SimQueue[V]) retireNodes(id int, t *sqThread[V], first, end *qnode[V], r uint64) {
	// The enqueue era now, read under the help-splice slot so the record
	// cannot be reissued (its era rewritten) while it is read. A failed
	// acquire means enqueuers are publishing fast: leave the run to the GC.
	es, ok := q.enqHaz.Acquire(q.n+id, &q.enqP, hazardAttempts)
	if !ok {
		q.enqHaz.Clear(q.n + id)
		return
	}
	e, pin := es.era.Load(), es.oldTail
	q.enqHaz.Clear(q.n + id)
	lb := t.limbo
	if lb.size == limboRuns {
		lb.drop() // full: the oldest run goes to the GC
	}
	lb.runs[(lb.head+lb.size)%limboRuns] = nodeRun[V]{first: first, end: end, r: r, e: e}
	lb.size++
	// enqP's era is e now, so from here on every acquire of enqP protects a
	// record of era ≥ e; the scan covers the holders that acquired earlier.
	minDeq, minEnq := ^uint64(0), ^uint64(0)
	for i := 0; i < q.n; i++ {
		if s := q.deqHaz.Protected(i); s != nil {
			minDeq = min(minDeq, s.era.Load())
		}
	}
	for i := 0; i < 2*q.n; i++ {
		if s := q.enqHaz.Protected(i); s != nil {
			minEnq = min(minEnq, s.era.Load())
		}
	}
	for lb.size > 0 {
		c := &lb.runs[lb.head]
		if c.r > minDeq || c.e >= minEnq {
			return
		}
		for nd := c.first; nd != c.end; {
			if nd == pin && c.e >= e {
				// No enqueue published since c retired: an acquirer of the
				// current record may still splice its oldTail. Keep it and
				// the rest of c for a later retire.
				c.first = nd
				return
			}
			nx := nd.next.Load() // Put overwrites the link: read it first
			t.nblk.Put(nd)
			nd = nx
		}
		lb.drop()
	}
}

// drop forgets the oldest run, released or left to the GC.
func (lb *nodeLimbo[V]) drop() {
	lb.runs[lb.head] = nodeRun[V]{}
	lb.head = (lb.head + 1) % limboRuns
	lb.size--
}

// enqRecord returns an EnqState record for process id to build the next
// batch into, reissued through the guarded plane (never one a stalled
// combiner still reads).
func (q *SimQueue[V]) enqRecord(id int, t *sqThread[V]) *enqState[V] {
	ns, fresh := q.estate.Get(t.eblk)
	q.enqStats.Recycled(id, fresh, t.eblk.Cached(), 0)
	return ns
}

// deqRecord returns a DeqState record for process id to build the next
// batch into, reissued through the guarded plane.
func (q *SimQueue[V]) deqRecord(id int, t *sqThread[V]) *deqState[V] {
	ns, fresh := q.dstate.Get(t.dblk)
	q.deqStats.Recycled(id, fresh, t.dblk.Cached(), 0)
	return ns
}

// splice links batch es onto the shared queue if not already done
// (Algorithm 5 lines 18/34, Algorithm 6 lines 49–51). es must be protected
// by a hazard slot (or be unreachable by recyclers, as on the solo paths).
//
// Invariant relied on throughout: a record is spliced before it is replaced
// — every combining round splices the record it loaded before attempting to
// CAS it away — so only the CURRENT record can be unspliced, and every
// return path of Enqueue splices the record covering its own operation.
func splice[V any](es *enqState[V]) {
	if es.oldTail != nil && es.lfirst != nil {
		es.oldTail.next.CompareAndSwap(nil, es.lfirst)
	}
}

// Enqueue appends v on behalf of process id (Algorithm 5): EnqueueBatch of
// a batch of one, through a per-thread one-element scratch.
func (q *SimQueue[V]) Enqueue(id int, v V) {
	t := q.thread(q.enqThreads, q.enqAct, id)
	t.one[0] = v
	q.EnqueueBatch(id, t.one[:])
}

// EnqueueBatch appends every value of vals, in order, on behalf of process
// id. Each budget-sized chunk is announced under ONE toggle and becomes one
// contiguous run of the queue: a combining round turns the whole vector into
// consecutive nodes of its private list, so no other process's values
// interleave within a chunk. An empty vals is a no-op.
func (q *SimQueue[V]) EnqueueBatch(id int, vals []V) {
	t := q.thread(q.enqThreads, q.enqAct, id)
	for len(vals) > 0 {
		m := min(len(vals), batchBudget)
		chunk := vals[:m]
		vals = vals[m:]

		op := q.enqStats.Start(id)
		if q.n == 1 {
			q.enqueueSoloBatch(t, op, chunk)
			continue
		}
		q.enqAnnounce.Publish(id, chunk) // line 1: announce
		core.SchedYield(id, core.PointAnnounce)
		t.toggler.Toggle() // lines 2–3
		t.bo.Wait()        // line 4
		q.enqueueAnnounced(id, t, op, m)
	}
}

// enqueueAnnounced runs the two-round combining protocol plus the fallback
// for process id's just-published vector of m values.
func (q *SimQueue[V]) enqueueAnnounced(id int, t *sqThread[V], op core.Op, m int) {
	st := q.enqStats
	um := uint64(m)
	myWord, myMask := t.toggler.Word(), t.toggler.Mask()

	for j := 0; j < 2; j++ {
		// lines 6–7: read the state reference under hazard protection so the
		// record cannot be recycled while we use it.
		ls, ok := q.enqHaz.Acquire(id, &q.enqP, hazardAttempts)
		if !ok {
			st.CASFailed(id, j, 1)
			continue
		}
		core.SchedYield(id, core.PointCollect)
		splice(ls) // line 18: help link the current batch (before any return)
		q.enqAct.LoadInto(t.active)
		ls.applied.XorInto(t.active, t.diffs)
		if t.diffs[myWord]&myMask == 0 { // line 11: already applied
			// Our batch B ≤ ls: if B < ls it was spliced before being
			// replaced, and splice(ls) above covers B == ls.
			q.enqHaz.Clear(id) // don't pin ls while parked outside Enqueue
			st.Served(id, op, um)
			return
		}

		// lines 12–27: build the private list — own vector first (lines
		// 13–17), then every value of every remaining announced vector in
		// diffs. Nodes come from the plane handle (refilled by failed rounds).
		own := q.enqAnnounce.OwnVec(id)
		first := q.node(t, own[0])
		last := first
		for _, v := range own[1:] {
			nn := q.node(t, v)
			last.next.Store(nn)
			last = nn
		}
		t.diffs.ClearBit(id) // line 17: exclude self
		slots, ops := uint64(1), uint64(len(own))
		abandoned := false
		for {
			k := t.diffs.BitSearchFirst() // line 20
			if k < 0 {
				break
			}
			t.diffs.ClearBit(k)
			// lines 21–24, batched: protect k's announce box and append its
			// whole vector. A validation failure means k re-announced — an
			// intervening publish doomed our CAS; abandon like a failed CAS.
			b, bok := q.enqAnnounce.Protect(id, k)
			if !bok {
				abandoned = true
				break
			}
			for _, v := range b.Vec() {
				nn := q.node(t, v)
				last.next.Store(nn)
				last = nn
				ops++
			}
			slots++
		}
		q.enqAnnounce.Clear(id) // done reading other processes' boxes
		if abandoned {
			t.freeNodes(first, last) // the list was never published: reuse it
			st.CASFailed(id, j, 2)
			if j == 0 {
				st.BackoffGrew(id, t.bo)
				t.bo.Wait()
			}
			continue
		}

		oldTail := ls.newTail    // capture before CAS: ls may recycle after it
		ns := q.enqRecord(id, t) // lines 28–31, into a recycled record
		ns.applied.CopyFrom(t.active)
		ns.era.Store(ls.era.Load() + 1)
		ns.oldTail = oldTail
		ns.lfirst = first
		ns.newTail = last
		core.SchedYield(id, core.PointCAS)
		if q.enqP.CompareAndSwap(ls, ns) { // line 35
			// line 36: link our own batch. Splice from the locals — once
			// published, ns may be retired and recycled by a later winner.
			oldTail.next.CompareAndSwap(nil, first)
			q.enqHaz.Clear(id)       // unpin ls before retiring it
			q.estate.Put(t.eblk, ls) // retire the replaced record for reuse
			st.Spliced(id, 0)        // own-batch hand-off
			st.Committed(id, op, um, slots, op.Act(t.active), ops)
			if j == 0 {
				t.bo.Shrink()
			}
			return
		}
		t.freeNodes(first, last) // the list was never published: reuse it
		q.estate.Put(t.eblk, ns) // likewise the record
		st.CASFailed(id, j, 0)
		if j == 0 {
			st.BackoffGrew(id, t.bo)
			t.bo.Wait()
		}
	}
	// line 38: two failed CASes ⇒ a helper applied our enqueue in batch B.
	// Ensure B is spliced before returning: one hazard attempt either
	// protects the current record (splice covers B ≤ current) or fails
	// because the current record was replaced — and replaced ⇒ spliced.
	if es, ok := q.enqHaz.Acquire(id, &q.enqP, 1); ok {
		splice(es)
	}
	q.enqHaz.Clear(id)
	st.Served(id, op, um)
}

// enqueueSoloBatch is EnqueueBatch's chunk for n == 1: no helper can exist,
// so skip announce, toggle, backoff, and CAS (process 0's enqueuer is the
// sole writer of enqP). The whole chunk becomes one private chain spliced
// with a single record rotation; records rotate through the plane's record
// cache and nodes through its node pool (consumed chains flow back from the
// dequeue-side handle via the pool's shared slots), so the steady-state path
// allocates nothing.
func (q *SimQueue[V]) enqueueSoloBatch(t *sqThread[V], op core.Op, vals []V) {
	ls := q.enqP.Load()
	first := q.node(t, vals[0])
	last := first
	for _, v := range vals[1:] {
		nn := q.node(t, v)
		last.next.Store(nn)
		last = nn
	}
	ns := q.enqRecord(0, t)
	ns.applied.CopyFrom(ls.applied)
	ns.era.Store(ls.era.Load() + 1)
	ns.oldTail = ls.newTail
	ns.lfirst = first
	ns.newTail = last
	q.enqP.Store(ns)
	// Splice before returning; prior batches were spliced by their own
	// enqueues, so the tail's next is nil until this CAS.
	ns.oldTail.next.CompareAndSwap(nil, first)
	q.estate.Put(t.eblk, ls)
	m := uint64(len(vals))
	q.enqStats.Committed(0, op, m, 1, 1, m)
}

// announceDeqCount publishes process id's dequeue count for the next toggle.
// The word is single-writer and most operations are single dequeues, so the
// store is skipped when the count is unchanged.
func (q *SimQueue[V]) announceDeqCount(id int, t *sqThread[V], m uint64) {
	if t.lastCnt != m {
		q.deqCounts[id].V.Store(m)
		t.lastCnt = m
	}
}

// Dequeue removes and returns the front value on behalf of process id
// (Algorithm 6); ok is false if the queue was empty. It is DequeueBatch of a
// batch of one, through a per-thread one-element buffer.
func (q *SimQueue[V]) Dequeue(id int) (V, bool) {
	t := q.thread(q.deqThreads, q.deqAct, id)
	t.oneOut = q.DequeueBatch(id, 1, t.oneOut)
	if len(t.oneOut) == 0 {
		var zero V
		return zero, false
	}
	return t.oneOut[0], true
}

// DequeueBatch removes up to want front values on behalf of process id,
// appending them to out[:0] (pass a slice kept across calls for an
// allocation-free steady state; nil allocates) and returning it. Each
// budget-sized chunk of the request is served contiguously at one
// linearization point; fewer than want values are returned exactly when the
// queue ran empty at the last chunk's linearization point.
func (q *SimQueue[V]) DequeueBatch(id int, want int, out []V) []V {
	t := q.thread(q.deqThreads, q.deqAct, id)
	out = out[:0]
	for want > 0 {
		m := min(want, batchBudget)
		want -= m

		op := q.deqStats.Start(id)
		before := len(out)
		if q.n == 1 {
			out = q.dequeueSoloBatch(t, op, m, out)
		} else {
			q.announceDeqCount(id, t, uint64(m))
			core.SchedYield(id, core.PointAnnounce)
			t.toggler.Toggle() // lines 39–40 (a dequeue announces only its count)
			t.bo.Wait()        // line 41
			out = q.dequeueAnnounced(id, t, op, m, out)
		}
		if len(out)-before < m {
			break // the queue was empty at the chunk's linearization point
		}
	}
	return out
}

// dequeueAnnounced runs the two-round combining protocol plus the fallback
// for process id's just-announced count of m dequeues, and appends the
// successful responses of its row to out in dequeue order.
func (q *SimQueue[V]) dequeueAnnounced(id int, t *sqThread[V], op core.Op, m int, out []V) []V {
	st := q.deqStats
	um := uint64(m)
	myWord, myMask := t.toggler.Word(), t.toggler.Mask()

	for j := 0; j < 2; j++ {
		ls, ok := q.deqHaz.Acquire(id, &q.deqP, hazardAttempts) // lines 43–44
		if !ok {
			st.CASFailed(id, j, 1)
			continue
		}
		core.SchedYield(id, core.PointCollect)
		q.deqAct.LoadInto(t.active)
		ls.applied.XorInto(t.active, t.diffs)
		if t.diffs[myWord]&myMask == 0 { // line 48: already applied
			out = appendHits(out, ls.res.Row(id)) // record hazard-protected: safe to read
			q.deqHaz.Clear(id)                    // don't pin ls while parked outside Dequeue
			st.Served(id, op, um)
			return out
		}

		// lines 49–51: help enqueuers splice their latest batch. Best
		// effort under a bounded hazard acquire: a failure means enqueuers
		// are actively publishing, and since every COMPLETED enqueue splices
		// its batch before returning, an unspliced batch can only contain
		// in-flight operations — missing those is linearizable.
		if es, ok := q.enqHaz.Acquire(q.n+id, &q.enqP, hazardAttempts); ok {
			core.SchedYield(id, core.PointCollect)
			splice(es)
			st.Spliced(id, 1) // dequeuer helped the hand-off
		}
		q.enqHaz.Clear(q.n + id) // help slot done: never leave it set

		oldHead, head := ls.head, ls.head
		era := ls.era.Load() + 1 // a local: once published, ns may recycle
		ns := q.deqRecord(id, t) // recycled record: reuse applied and the rows
		ns.applied.CopyFrom(t.active)
		ns.era.Store(era)
		ns.res.Forward(&ls.res)
		slots, ops := uint64(0), uint64(0)
		for { // lines 53–61: serve every dequeuer in diffs, its whole count
			k := t.diffs.BitSearchFirst()
			if k < 0 {
				break
			}
			t.diffs.ClearBit(k)
			cnt := min(max(q.deqCounts[k].V.Load(), 1), batchBudget) // unchecked: see the type comment
			row := ns.res.Row(k)[:0]
			for c := uint64(0); c < cnt; c++ {
				r := deqRes[V]{}
				if next := head.next.Load(); next != nil {
					r = deqRes[V]{v: next.v, ok: true}
					head = next
				}
				row = append(row, r)
			}
			ns.res.Serve(k, row)
			slots++
			ops += cnt
		}
		ns.head = head
		// Read the responses BEFORE publishing: once published, ns may be
		// retired and recycled by any later winner.
		base := len(out)
		out = appendHits(out, ns.res.Row(id))
		core.SchedYield(id, core.PointCAS)
		if q.deqP.CompareAndSwap(ls, ns) { // line 67
			q.deqHaz.Clear(id) // unpin ls before retiring it
			q.dstate.Put(t.dblk, ls)
			if head != oldHead {
				q.retireNodes(id, t, oldHead, head, era)
			}
			st.Committed(id, op, um, slots, op.Act(t.active), ops)
			if j == 0 {
				t.bo.Shrink()
			}
			return out
		}
		out = out[:base]         // speculative copies die with the failed round
		q.dstate.Put(t.dblk, ns) // never published — immediately reusable
		st.CASFailed(id, j, 0)
		if j == 0 {
			st.BackoffGrew(id, t.bo)
			t.bo.Wait()
		}
	}
	// lines 70–72: a helper served us; read the published record under
	// hazard protection (unbounded form is lock-free: each failure implies
	// a concurrent successful publish).
	st.Served(id, op, um)
	ls, _ := q.deqHaz.Acquire(id, &q.deqP, 0)
	out = appendHits(out, ls.res.Row(id))
	q.deqHaz.Clear(id)
	return out
}

// appendHits appends the successful dequeue values of row to out. Misses are
// a suffix of the row (the queue stayed empty once drained within a round),
// so the returned values are exactly the dequeued front run in order.
func appendHits[V any](out []V, row []deqRes[V]) []V {
	for _, r := range row {
		if r.ok {
			out = append(out, r.v)
		}
	}
	return out
}

// dequeueSoloBatch is DequeueBatch's chunk for n == 1: up to m front values
// are consumed in one record rotation. Consumed nodes retire into the
// dequeue-side plane handle, whose full chains flow back to the enqueue end
// through the pool's shared slots — nodes strictly before the head are
// unreachable from every record still in use, and with one process per end
// no stalled combiner can be traversing them. No announced path runs at
// n == 1, so the record's response rows are never read and are left alone.
func (q *SimQueue[V]) dequeueSoloBatch(t *sqThread[V], op core.Op, m int, out []V) []V {
	ls := q.deqP.Load()
	head := ls.head
	got := 0
	newHead := head
	for got < m {
		next := newHead.next.Load()
		if next == nil {
			break
		}
		out = append(out, next.v)
		newHead = next
		got++
	}
	ns := q.deqRecord(0, t)
	ns.applied.CopyFrom(ls.applied)
	ns.era.Store(ls.era.Load() + 1)
	ns.head = newHead
	q.deqP.Store(ns)
	q.dstate.Put(t.dblk, ls)
	// Nodes head..(node before newHead) were consumed: retire each (Put's
	// Reset clears values; read the link before Put overwrites it).
	for nd := head; nd != newHead; {
		nx := nd.next.Load()
		t.nblk.Put(nd)
		nd = nx
	}
	q.deqStats.Committed(0, op, uint64(m), 1, 1, uint64(m))
	return out
}

// Stats aggregates both instances' combining statistics into a core.Stats
// (enqueue and dequeue sides summed).
func (q *SimQueue[V]) Stats() core.Stats {
	return q.enqStats.Aggregate().Add(q.deqStats.Aggregate())
}

// Name implements Interface.
func (q *SimQueue[V]) Name() string { return "SimQueue" }
