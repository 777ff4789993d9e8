// Package simuc is the public API of this reproduction of
//
//	P. Fatourou and N. D. Kallimanis,
//	"A Highly-Efficient Wait-Free Universal Construction", SPAA 2011.
//
// It exposes the paper's contributions behind a stable facade:
//
//   - Universal — the practical wait-free universal construction P-Sim:
//     turn ANY sequential object into a linearizable, wait-free concurrent
//     object. Announce with one Fetch&Add on a toggle-bit vector, combine
//     every announced operation on a private copy of the state, publish
//     with one CAS; at most two rounds per operation, no locks, no waiting.
//
//   - Stack and Queue — the paper's wait-free SimStack and SimQueue. The
//     queue runs TWO independent instances of the construction so enqueuers
//     and dequeuers never serialize against each other.
//
//   - Collect, ActiveSet — the Fetch&Add-based collect object and active
//     set of §3, with step complexity 1 for update/join/leave.
//
//   - LargeObject (and the lsim aliases) — L-Sim (§6), the variant for
//     objects too large to copy: operations run against per-helper
//     directories and write back per-item, costing O(kw) shared accesses.
//
// Every process (goroutine) using one of these objects is identified by an
// id in [0, n); each id must be driven by at most one goroutine at a time —
// the standard model of the paper (§2).
package simuc

import (
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/lsim"
	"repro/internal/queue"
	"repro/internal/simmap"
	"repro/internal/snapshot"
	"repro/internal/stack"
)

// Stats summarizes an object's combining behaviour. AvgHelping is the
// paper's "average degree of helping" (Figure 2, right): announced
// operations applied per successful state publication.
type Stats = core.Stats

// Config tunes a construction. The zero value selects the defaults.
type Config struct {
	// BackoffLow and BackoffHigh bound the adaptive backoff window in
	// delay-loop iterations (Algorithm 3 line 4). BackoffHigh = -1 disables
	// backoff; 0 selects the default.
	BackoffLow, BackoffHigh int
}

func (c Config) bounds() (lo, hi int) {
	lo, hi = c.BackoffLow, c.BackoffHigh
	if lo <= 0 {
		lo = 1
	}
	switch {
	case hi < 0:
		hi = 0 // disabled
	case hi == 0:
		hi = core.DefaultBackoffUpper
	}
	return lo, hi
}

// Universal is a wait-free universal object: a sequential object of state S
// with operations of argument type A and response type R, simulated by up to
// n concurrent processes via the P-Sim construction.
type Universal[S, A, R any] struct {
	p *core.PSim[S, A, R]
}

// NewUniversal builds a universal object for n processes. apply is the
// sequential operation: it receives a PRIVATE copy of the state (mutate
// freely), the id of the process whose operation is being applied, and the
// announced argument, and returns the response.
//
// If S contains references to mutable data (slices, maps), supply a deep
// copy via clone; pass nil when shallow copies are safe (plain values, or
// pointers into immutable structures).
func NewUniversal[S, A, R any](n int, init S, apply func(st *S, pid int, arg A) R, clone func(S) S, cfg Config) *Universal[S, A, R] {
	lo, hi := cfg.bounds()
	opts := []core.PSimOption[S]{core.WithBackoff[S](lo, hi)}
	if clone != nil {
		opts = append(opts, core.WithClone(clone))
	}
	return &Universal[S, A, R]{p: core.NewPSim(n, init, apply, opts...)}
}

// Apply announces arg on behalf of process id, participates in combining,
// and returns the operation's response. Wait-free: completes in a bounded
// number of this process's own steps.
func (u *Universal[S, A, R]) Apply(id int, arg A) R { return u.p.Apply(id, arg) }

// ApplyBatch announces the whole vector args in ONE announce slot, applies
// it contiguously at a single linearization point, and appends the per-
// element responses to res[:0], returning it. One announce, one toggle,
// one CAS per combining round amortize over the entire vector, so batched
// throughput grows with the batch size; the hot path allocates nothing.
// Vectors longer than the combining budget are split into budget-sized
// chunks, each linearized atomically. Wait-free like Apply.
func (u *Universal[S, A, R]) ApplyBatch(id int, args []A, res []R) []R {
	return u.p.ApplyBatch(id, args, res)
}

// Read returns the current state without announcing an operation. Treat the
// result as immutable.
func (u *Universal[S, A, R]) Read() S { return u.p.Read() }

// Stats returns combining statistics.
func (u *Universal[S, A, R]) Stats() Stats { return u.p.Stats() }

// Stack is the paper's wait-free SimStack.
type Stack[V any] struct {
	s *stack.SimStack[V]
}

// NewStack returns an empty wait-free stack for n processes.
func NewStack[V any](n int, cfg Config) *Stack[V] {
	lo, hi := cfg.bounds()
	return &Stack[V]{s: stack.NewSimStack[V](n, stack.WithBackoff(lo, hi))}
}

// Push pushes v on behalf of process id.
func (s *Stack[V]) Push(id int, v V) { s.s.Push(id, v) }

// Pop pops on behalf of process id; ok is false when the stack is empty.
func (s *Stack[V]) Pop(id int) (v V, ok bool) { return s.s.Pop(id) }

// PushBatch pushes all of vals (vals[len-1] ends up on top) in one
// combined operation vector — one announce and one publish per combining
// round for the whole batch.
func (s *Stack[V]) PushBatch(id int, vals []V) { s.s.PushBatch(id, vals) }

// PopBatch pops up to want values, appending them in pop order to out[:0]
// and returning it. Fewer than want values are returned when the stack ran
// empty at the batch's linearization point.
func (s *Stack[V]) PopBatch(id int, want int, out []V) []V {
	return s.s.PopBatch(id, want, out)
}

// Len returns a snapshot of the stack's size.
func (s *Stack[V]) Len() int { return s.s.Len() }

// Stats returns combining statistics.
func (s *Stack[V]) Stats() Stats { return s.s.Stats() }

// Queue is the paper's wait-free SimQueue (two independent Sim instances:
// enqueuers and dequeuers do not serialize against each other).
type Queue[V any] struct {
	q *queue.SimQueue[V]
}

// NewQueue returns an empty wait-free queue for n processes.
func NewQueue[V any](n int, cfg Config) *Queue[V] {
	q := queue.NewSimQueue[V](n)
	lo, hi := cfg.bounds()
	q.SetBackoff(lo, hi)
	return &Queue[V]{q: q}
}

// Enqueue appends v on behalf of process id.
func (q *Queue[V]) Enqueue(id int, v V) { q.q.Enqueue(id, v) }

// Dequeue removes the front value on behalf of process id; ok is false when
// the queue is empty.
func (q *Queue[V]) Dequeue(id int) (v V, ok bool) { return q.q.Dequeue(id) }

// EnqueueBatch appends all of vals in order as one combined operation
// vector: the combiner splices the whole batch into the queue as a single
// pre-linked node list.
func (q *Queue[V]) EnqueueBatch(id int, vals []V) { q.q.EnqueueBatch(id, vals) }

// DequeueBatch removes up to want front values, appending them in FIFO
// order to out[:0] and returning it. Fewer than want values are returned
// when the queue ran empty at the batch's linearization point.
func (q *Queue[V]) DequeueBatch(id int, want int, out []V) []V {
	return q.q.DequeueBatch(id, want, out)
}

// Stats returns combining statistics aggregated over both instances.
func (q *Queue[V]) Stats() Stats { return q.q.Stats() }

// Collect is the paper's SimCollect: n single-writer components of d bits
// each over Fetch&Add words; update costs ONE shared access, collect costs
// ⌈nd/64⌉ (Theorem 3.1). When n·d ≤ 64, Snapshot provides a linearizable
// single-writer snapshot.
type Collect = collect.SimCollect

// NewCollect returns a collect object with n components of d bits each.
func NewCollect(n, d int) *Collect { return collect.NewSimCollect(n, d) }

// CollectUpdater is process i's single-writer handle on a Collect.
type CollectUpdater = collect.Updater

// Snapshot is the paper's single-writer snapshot object (§1): each
// component updated by its owner with ONE Fetch&Add; scans are a single
// atomic load when the object fits one word (n·(dataBits+seqBits) ≤ 64) and
// a lock-free double collect otherwise.
type Snapshot = snapshot.SWSnapshot

// SnapshotWriter is component i's single-writer handle on a Snapshot.
type SnapshotWriter = snapshot.Writer

// NewSnapshot returns a snapshot object with n components of dataBits bits
// each and seqBits of embedded update counter (0 = default).
func NewSnapshot(n, dataBits, seqBits int) *Snapshot {
	return snapshot.New(n, dataBits, seqBits)
}

// ActiveSet is the paper's SimActSet: join/leave with one Fetch&Add each,
// getSet with ⌈n/64⌉ reads.
type ActiveSet = collect.ActSet

// NewActiveSet returns an active set for n processes.
func NewActiveSet(n int) *ActiveSet { return collect.NewActSet(n) }

// ActiveSetMember is process i's single-writer handle on an ActiveSet.
type ActiveSetMember = collect.Member

// LargeObject is L-Sim (§6): the universal construction for objects too
// large to copy per round. Operations access shared items through a Mem and
// must be deterministic; see the lsim aliases below.
type LargeObject[V, A, R any] = lsim.LSim[V, A, R]

// NewLargeObject returns an L-Sim instance for n processes.
func NewLargeObject[V, A, R any](n int) *LargeObject[V, A, R] {
	return lsim.New[V, A, R](n)
}

// Map is a wait-free striped hash map built from multiple independent Sim
// instances — the paper's sketched route to data structures with internal
// parallelism (§1), generalizing SimQueue's two-instance design. Put and
// Delete combine within a stripe and copy only the trie nodes on the key's
// path; Get reads the stripe's persistent hash trie through one
// hazard-protected load of its root (linearizable without announcing).
type Map[K comparable, V any] = simmap.Map[K, V]

// NewMap returns a wait-free map for n processes with the given stripe
// count (more stripes, more inter-key parallelism; stripes never serialize
// against each other). Multi-key batches (MSet, MGet, MDelete) group keys
// by stripe and combine each group as one operation vector: single keys are
// linearizable, multi-key calls per key, not atomically across stripes.
func NewMap[K comparable, V any](n, stripes int) *Map[K, V] {
	return simmap.New[K, V](n, stripes)
}

// Item is one shared data item of a LargeObject.
type Item[V any] = lsim.Item[V]

// Mem is the memory interface a LargeObject operation uses to read, write
// and allocate items.
type Mem[V, A, R any] = lsim.Mem[V, A, R]

// OpFunc is a sequential operation on a LargeObject.
type OpFunc[V, A, R any] = lsim.OpFunc[V, A, R]
