package queue

import (
	"sync/atomic"

	"repro/internal/alloc"
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
// Progress: each end runs core.Proc.Combine, so it is bounded up to a
// lock-free fallback read, as in core.PSim.
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

	enqThreads []enqThread[V]
	deqThreads []deqThread[V]
	enqStats   *core.StatsPlane
	deqStats   *core.StatsPlane
}

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

// enqThread is an enqueuer's private handle internals and its core.Round:
// the record it loaded, the successor and the private node chain it builds.
type enqThread[V any] struct {
	p           core.Proc
	q           *SimQueue[V]
	id          int
	eblk        *alloc.Handle[enqState[V]] // record cache
	nblk        *alloc.Handle[qnode[V]]    // node cache
	ls, ns      *enqState[V]               // loaded record, successor
	first, last *qnode[V]                  // the private node chain
	chunk       []V                        // the announced vector
	one         [1]V                       // Enqueue's batch of one
}

// deqThread is a dequeuer's private handle internals and its core.Round:
// the record it loaded, the successor it builds and the head it walks.
type deqThread[V any] struct {
	p             core.Proc
	q             *SimQueue[V]
	id            int
	dblk          *alloc.Handle[deqState[V]] // record cache
	nblk          *alloc.Handle[qnode[V]]    // node cache
	limbo         *nodeLimbo[V]              // consumed runs awaiting the era rule (n > 1)
	ls, ns        *deqState[V]               // loaded record, successor
	oldHead, head *qnode[V]                  // the loaded head, the walked one
	cnt           uint64                     // the announced count
	out           []V                        // values collected so far
	base          int                        // len(out) before this round's row
	oneOut        []V                        // Dequeue's response buffer
}

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
		enqThreads:  make([]enqThread[V], n),
		deqThreads:  make([]deqThread[V], n),
		enqStats:    core.NewStatsPlane(n),
		deqStats:    core.NewStatsPlane(n),
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
	for id := 0; id < n; id++ {
		e, d := &q.enqThreads[id], &q.deqThreads[id]
		e.q, e.id = q, id
		e.eblk, e.nblk = q.estate.Pool().Handle(id), q.nodes.Handle(id)
		d.q, d.id = q, id
		d.dblk, d.nblk = q.dstate.Pool().Handle(id), q.nodes.Handle(n+id)
		if n > 1 {
			d.limbo = &nodeLimbo[V]{}
		}
	}
	q.SetBackoff(1, core.DefaultBackoffUpper)
	return q
}

// SetBackoff reconfigures the adaptive backoff bounds (upper 0 disables).
// Call before any operation: it rebuilds every process's round state.
func (q *SimQueue[V]) SetBackoff(lower, upper int) {
	for id := range q.enqThreads {
		q.enqThreads[id].p = core.NewProc(q.enqAct, q.enqStats, id, lower, upper)
		q.deqThreads[id].p = core.NewProc(q.deqAct, q.deqStats, id, lower, upper)
	}
}

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

// putRun returns the nodes first..end (exclusive) to plane handle h.
func putRun[V any](h *alloc.Handle[qnode[V]], first, end *qnode[V]) {
	for nd := first; nd != end; {
		nx := nd.next.Load() // Put overwrites the link: read it first
		h.Put(nd)
		nd = nx
	}
}

// limboRuns bounds the consumed runs one dequeuer holds back under the era
// rule; a run is one winning round's consumption, at most
// n×core.DefaultBatchBudget nodes.
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

// retireNodes parks the run first..end (exclusive) that the dequeuer's
// winning round consumed in publishing dequeue era r, then hands every
// parked run that now passes the era rule (see the type comment) to the
// dequeue-side plane handle. Wait-free: one bounded hazard acquire, one
// scan of the 3n hazard slots, at most limboRuns runs released.
func (t *deqThread[V]) retireNodes(first, end *qnode[V], r uint64) {
	q, id := t.q, t.id
	// The enqueue era now, read under the help-splice slot so the record
	// cannot be reissued (its era rewritten) while it is read. A failed
	// acquire means enqueuers are publishing fast: leave the run to the GC.
	es, ok := q.enqHaz.Acquire(q.n+id, &q.enqP, core.HazardAttempts)
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

// splice links batch es onto the shared queue if not already done
// (Algorithm 5 lines 18/34, Algorithm 6 lines 49–51). es must be protected
// by a hazard slot (or be unreachable by recyclers, as on the solo paths).
//
// Invariant relied on throughout: a record is spliced before it is replaced
// — every combining round splices the record it loaded before attempting to
// CAS it away — so only the CURRENT record can be unspliced, and every
// return path of Enqueue splices the record covering its own operation.
func splice[V any](es *enqState[V]) {
	// Load first: the batch is usually spliced, and a failing CAS still costs.
	if es.oldTail != nil && es.lfirst != nil && es.oldTail.next.Load() == nil {
		es.oldTail.next.CompareAndSwap(nil, es.lfirst)
	}
}

// Enqueue appends v on behalf of process id (Algorithm 5): EnqueueBatch of
// a batch of one, through a per-thread one-element scratch.
func (q *SimQueue[V]) Enqueue(id int, v V) {
	t := &q.enqThreads[id]
	t.one[0] = v
	q.EnqueueBatch(id, t.one[:])
}

// EnqueueBatch appends every value of vals, in order, on behalf of process
// id. Each budget-sized chunk is announced under ONE toggle and becomes one
// contiguous run of the queue: a combining round turns the whole vector into
// consecutive nodes of its private list, so no other process's values
// interleave within a chunk. An empty vals is a no-op.
func (q *SimQueue[V]) EnqueueBatch(id int, vals []V) {
	t := &q.enqThreads[id]
	for len(vals) > 0 {
		m := min(len(vals), core.DefaultBatchBudget)
		t.chunk = vals[:m]
		vals = vals[m:]

		op := q.enqStats.Start(id)
		if q.n == 1 {
			t.p.Solo(t, op, m)
			continue
		}
		q.enqAnnounce.Publish(id, t.chunk) // line 1: announce
		t.p.Combine(t, op, m)
	}
	t.chunk = nil // keep no caller slice
}

// Load is core.Round.Load (lines 6–7): the state reference, read under
// hazard protection so the record cannot be recycled while we use it.
func (t *enqThread[V]) Load() (xatomic.Snapshot, bool) {
	if t.ls = t.q.enqHaz.RoundLoad(t.id, &t.q.enqP, t.q.n == 1); t.ls == nil {
		return nil, false
	}
	return t.ls.applied, true
}

// Done is core.Round.Done (line 11). Our batch B ≤ ls: if B < ls it was
// spliced before being replaced, and splicing ls covers B == ls.
func (t *enqThread[V]) Done() bool {
	splice(t.ls)           // line 18: help link the current batch before returning
	t.q.enqHaz.Clear(t.id) // don't pin ls while parked outside Enqueue
	return true
}

// Build is core.Round.Build: help link the loaded batch (line 18 — a record
// is spliced before it is replaced), then start the successor (lines
// 28–31) in a record reissued through the guarded plane, never one a
// stalled combiner still reads.
func (t *enqThread[V]) Build(active xatomic.Snapshot) {
	q, ls := t.q, t.ls
	splice(ls)
	ns, fresh := q.estate.Get(t.eblk)
	q.enqStats.Recycled(t.id, fresh, t.eblk.Cached(), 0)
	ns.applied.CopyFrom(active)
	ns.era.Store(ls.era.Load() + 1)
	ns.oldTail = ls.newTail
	t.ns, t.first, t.last = ns, nil, nil
}

// Serve is core.Round.Serve (lines 12–27, batched): append k's whole
// vector to the private list, nodes coming from the plane handle (refilled
// by failed rounds). Another process's box is protected first.
func (t *enqThread[V]) Serve(k int) (uint64, bool) {
	vec := t.chunk
	if k != t.id {
		b, ok := t.q.enqAnnounce.Protect(t.id, k)
		if !ok {
			return 0, false
		}
		vec = b.Vec()
	}
	for _, v := range vec {
		nd, _ := t.nblk.Get() // Get clears the link; Reset cleared the value
		nd.v = v
		if t.last == nil {
			t.first = nd
		} else {
			t.last.next.Store(nd)
		}
		t.last = nd
	}
	return uint64(len(vec)), true
}

// Seal is core.Round.Seal: the successor names the private list.
func (t *enqThread[V]) Seal() {
	t.ns.lfirst, t.ns.newTail = t.first, t.last
}

// Publish is core.Round.Publish (line 35), then line 36: link our own batch
// while ls, and with it the old tail, is still protected. The splice reads
// the locals — once published, ns may be retired and recycled by a later
// winner.
func (t *enqThread[V]) Publish() bool {
	q := t.q
	oldTail := t.ns.oldTail
	if q.n == 1 {
		q.enqP.Store(t.ns) // sole writer: plain atomic publish
	} else {
		q.enqAnnounce.Clear(t.id) // done reading other processes' boxes
		if !q.enqP.CompareAndSwap(t.ls, t.ns) {
			return false
		}
	}
	oldTail.next.CompareAndSwap(nil, t.first)
	if q.n > 1 {
		q.enqHaz.Clear(t.id) // unpin ls before retiring it
	}
	q.estate.Put(t.eblk, t.ls)
	q.enqStats.Spliced(t.id, 0) // own-batch hand-off
	return true
}

// Discard is core.Round.Discard: the list and the record were never
// published, so both are reusable at once.
func (t *enqThread[V]) Discard() {
	t.q.enqAnnounce.Clear(t.id)
	putRun(t.nblk, t.first, nil) // the private list ends in a nil link
	t.q.estate.Put(t.eblk, t.ns)
}

// Fallback is core.Round.Fallback (line 38): a helper applied our enqueue in
// batch B. Ensure B is spliced before returning: one hazard attempt either
// protects the current record (splice covers B ≤ current) or fails because
// the current record was replaced — and replaced ⇒ spliced.
func (t *enqThread[V]) Fallback() {
	q := t.q
	if es, ok := q.enqHaz.Acquire(t.id, &q.enqP, 1); ok {
		splice(es)
	}
	q.enqHaz.Clear(t.id)
}

// Dequeue removes and returns the front value on behalf of process id
// (Algorithm 6); ok is false if the queue was empty. It is DequeueBatch of a
// batch of one, through a per-thread one-element buffer.
func (q *SimQueue[V]) Dequeue(id int) (V, bool) {
	t := &q.deqThreads[id]
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
	t := &q.deqThreads[id]
	t.out = out[:0]
	for want > 0 {
		m := min(want, core.DefaultBatchBudget)
		want -= m

		op := q.deqStats.Start(id)
		before := len(t.out)
		// lines 39–40: a dequeue announces only its count. The word is
		// single-writer and most operations are single dequeues, so the
		// store is skipped when the count is unchanged.
		if c := uint64(m); c != t.cnt {
			t.cnt = c
			q.deqCounts[id].V.Store(c)
		}
		if q.n == 1 {
			t.p.Solo(t, op, m)
		} else {
			t.p.Combine(t, op, m)
		}
		if len(t.out)-before < m {
			break // the queue was empty at the chunk's linearization point
		}
	}
	out, t.out = t.out, nil
	return out
}

// Load is core.Round.Load (lines 43–44), as for enqueuers.
func (t *deqThread[V]) Load() (xatomic.Snapshot, bool) {
	if t.ls = t.q.deqHaz.RoundLoad(t.id, &t.q.deqP, t.q.n == 1); t.ls == nil {
		return nil, false
	}
	return t.ls.applied, true
}

// Done is core.Round.Done (line 48): the record is hazard-protected, so its
// rows are safe to read.
func (t *deqThread[V]) Done() bool {
	t.out = appendHits(t.out, t.ls.res.Row(t.id))
	t.q.deqHaz.Clear(t.id) // don't pin ls while parked outside Dequeue
	return true
}

// Build is core.Round.Build. First, lines 49–51: help enqueuers splice
// their latest batch. Best effort under a bounded hazard acquire: a failure
// means enqueuers are actively publishing, and since every COMPLETED
// enqueue splices its batch before returning, an unspliced batch can only
// contain in-flight operations — missing those is linearizable. At n == 1
// every batch is spliced by its own enqueue. Then the successor, in a
// recycled record whose applied vector and rows are reused.
func (t *deqThread[V]) Build(active xatomic.Snapshot) {
	q, ls := t.q, t.ls
	if q.n > 1 {
		if es, ok := q.enqHaz.Acquire(q.n+t.id, &q.enqP, core.HazardAttempts); ok {
			core.SchedYield(t.id, core.PointCollect)
			splice(es)
			q.deqStats.Spliced(t.id, 1) // dequeuer helped the hand-off
		}
		q.enqHaz.Clear(q.n + t.id) // help slot done: never leave it set
	}
	ns, fresh := q.dstate.Get(t.dblk)
	q.deqStats.Recycled(t.id, fresh, t.dblk.Cached(), 0)
	ns.applied.CopyFrom(active)
	ns.era.Store(ls.era.Load() + 1)
	if q.n > 1 { // at n == 1 the rows are left alone (see Serve)
		ns.res.Forward(&ls.res)
	}
	t.ns, t.oldHead, t.head, t.base = ns, ls.head, ls.head, len(t.out)
}

// Serve is core.Round.Serve (lines 53–61): serve k's whole count from the
// front. Another process's count is read unchecked (see the type comment).
func (t *deqThread[V]) Serve(k int) (uint64, bool) {
	cnt := t.cnt
	if t.q.n == 1 { // no round reads the rows at n == 1: answer directly
		for c := uint64(0); c < cnt && t.head.next.Load() != nil; c++ {
			t.head = t.head.next.Load()
			t.out = append(t.out, t.head.v)
		}
		return cnt, true
	}
	if k != t.id {
		cnt = min(max(t.q.deqCounts[k].V.Load(), 1), core.DefaultBatchBudget)
	}
	row := t.ns.res.Buf(k)
	for c := uint64(0); c < cnt; c++ {
		r := deqRes[V]{}
		if next := t.head.next.Load(); next != nil {
			r = deqRes[V]{v: next.v, ok: true}
			t.head = next
		}
		row = append(row, r)
	}
	t.ns.res.Serve(k, row)
	return cnt, true
}

// Seal is core.Round.Seal: the successor's head, and our values out of it.
func (t *deqThread[V]) Seal() {
	t.ns.head = t.head
	if t.q.n > 1 {
		t.out = appendHits(t.out, t.ns.res.Row(t.id))
	}
}

// Publish is core.Round.Publish (line 67), then the consumed run
// oldHead..head retires: under the era rule, or straight into the plane at
// n == 1 (see the type comment).
func (t *deqThread[V]) Publish() bool {
	q := t.q
	era := t.ns.era.Load() // a local: once published, ns may recycle
	if q.n == 1 {
		q.deqP.Store(t.ns) // sole writer: plain atomic publish
	} else if !q.deqP.CompareAndSwap(t.ls, t.ns) {
		return false
	} else {
		q.deqHaz.Clear(t.id) // unpin ls before retiring it
	}
	q.dstate.Put(t.dblk, t.ls)
	if q.n == 1 {
		putRun(t.nblk, t.oldHead, t.head)
	} else if t.head != t.oldHead {
		t.retireNodes(t.oldHead, t.head, era)
	}
	return true
}

// Discard is core.Round.Discard: the values copied out die with the
// round, and the never-published record is reusable at once.
func (t *deqThread[V]) Discard() {
	t.out = t.out[:t.base]
	t.q.dstate.Put(t.dblk, t.ns)
}

// Fallback is core.Round.Fallback (lines 70–72): a helper served us; an
// unbounded protected load, then Done.
func (t *deqThread[V]) Fallback() {
	t.ls, _ = t.q.deqHaz.Acquire(t.id, &t.q.deqP, 0)
	t.Done()
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

// Stats aggregates both instances' combining statistics into a core.Stats
// (enqueue and dequeue sides summed).
func (q *SimQueue[V]) Stats() core.Stats {
	return q.enqStats.Aggregate().Add(q.deqStats.Aggregate())
}

// Name implements Interface.
func (q *SimQueue[V]) Name() string { return "SimQueue" }
