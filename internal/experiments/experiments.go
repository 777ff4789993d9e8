// Package experiments wires the repository's implementations into the
// harness configurations that regenerate every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index):
//
//	Figure 2 (left)  — Fetch&Multiply time vs threads, seven techniques
//	Figure 2 (right) — average degree of helping vs threads, same runs
//	Figure 3 (left)  — stack push/pop pairs vs threads, five stacks
//	Figure 3 (right) — queue enq/deq pairs vs threads, four queues
//	Table 1          — measured shared-memory accesses per operation
//	Ablations        — backoff on/off, pooled vs GC publication (1 and 8
//	                   words), Act layout, two queue instances vs one
package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/flatcombining"
	"repro/internal/fmul"
	"repro/internal/harness"
	"repro/internal/herlihy"
	"repro/internal/lsim"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/queue"
	"repro/internal/stack"
	"repro/internal/workload"
)

// traceHook returns a flight-recorder attach for implementations with an
// instrument (Sim-family Attach); implementations without one (locks, plain
// CAS loops, …) return nil and run untraced.
func traceHook(o any) func(*trace.Tracer) {
	if a, ok := o.(interface {
		Attach(*obs.Registry, string, *obs.SimRecorder, *trace.Tracer)
	}); ok {
		return func(tr *trace.Tracer) { a.Attach(nil, "", nil, tr) }
	}
	return nil
}

// helpingHook returns the average degree of combining for implementations
// that count it — the Sim family's helping degree and flat combining's
// combining degree, the two curves of Figure 2 (right) — and nil for the
// rest (locks, plain CAS loops, …), whose rows report no helping.
func helpingHook(o any) func() float64 {
	switch s := o.(type) {
	case interface{ Stats() core.Stats }:
		return func() float64 { return s.Stats().AvgHelping }
	case interface{ Stats() flatcombining.Stats }:
		return func() float64 { return s.Stats().AvgCombine }
	}
	return nil
}

// instance wraps one operation of implementation o as a harness instance,
// with o's flight-recorder and helping hooks where it has them. L-Sim makers
// pass a nil o: its Stats count a publish per round, not an operation.
func instance(name string, o any, op func(id int, rng *workload.RNG)) harness.Instance {
	return harness.Instance{Name: name, Op: op, Trace: traceHook(o), Helping: helpingHook(o)}
}

// fmulMaker adapts a fmul implementation constructor into a harness.Maker.
// Each operation multiplies by a small random odd factor (odd keeps the
// state word from collapsing to 0 mod 2^64).
func fmulMaker(name string, build func(n int) fmul.Interface) harness.Maker {
	return func(n int) harness.Instance {
		o := build(n)
		return instance(name, o, func(id int, rng *workload.RNG) {
			o.Apply(id, uint64(rng.Intn(1000))*2+3)
		})
	}
}

// Fig2Makers returns the Figure 2 contenders: P-Sim (default adaptive
// backoff and a fixed wide-window variant that maximizes combining — on a
// host with fewer cores than threads the wide window is what recreates the
// paper's helping behaviour, since goroutines are otherwise never preempted
// inside the announce→combine window), the CLH and MCS spin locks (the
// paper measured both and plotted CLH, footnote 2), the simple lock-free
// CAS loop, flat combining and a combining tree.
func Fig2Makers() []harness.Maker {
	return []harness.Maker{
		fmulMaker("P-Sim", func(n int) fmul.Interface { return fmul.NewPSim(n) }),
		fmulMaker("P-Sim(combine)", func(n int) fmul.Interface {
			return fmul.NewPSim(n, core.WithBackoff[uint64](512, 4096))
		}),
		fmulMaker("CLH-lock", func(n int) fmul.Interface { return fmul.NewCLH(n) }),
		fmulMaker("MCS-lock", func(n int) fmul.Interface { return fmul.NewMCS(n) }),
		fmulMaker("lock-free CAS", func(n int) fmul.Interface { return fmul.NewLockFree(n) }),
		fmulMaker("FlatCombining", func(n int) fmul.Interface { return fmul.NewFC(n, 0, 0) }),
		fmulMaker("CombiningTree", func(n int) fmul.Interface { return fmul.NewCombTree(n) }),
	}
}

// Fig2BatchMakers returns the fig2-batch contenders: P-Sim driven through
// ApplyBatch at every requested batch size (the per-call operation vector
// rides one announce slot, so announce/toggle/backoff/CAS amortize across
// the batch), for both the GC-based and the pooled variant. Batch 1 routes
// through plain Apply and is the baseline the CI smoke compares against.
// The harness reports throughput per LOGICAL operation (Instance.OpsPerCall).
func Fig2BatchMakers(batches []int) []harness.Maker {
	var makers []harness.Maker
	for _, b := range batches {
		if b <= 1 {
			makers = append(makers,
				fmulMaker("P-Sim b=1", func(n int) fmul.Interface { return fmul.NewPSim(n) }),
				fmulMaker("P-Sim(pool) b=1", func(n int) fmul.Interface { return fmul.NewPSimPooled(n) }))
			continue
		}
		makers = append(makers,
			batchMaker(fmt.Sprintf("P-Sim b=%d", b), b,
				func(n int) fmulBatcher { return fmul.NewPSim(n) }),
			batchMaker(fmt.Sprintf("P-Sim(pool) b=%d", b), b,
				func(n int) fmulBatcher { return fmul.NewPSimPooled(n) }))
	}
	return makers
}

// fmulBatcher is the batched Fetch&Multiply surface fig2-batch drives.
type fmulBatcher interface {
	ApplyBatch(id int, fs, res []uint64) []uint64
	Name() string
}

// batchMaker adapts a batched fmul constructor: one Op call applies a
// vector of b random factors through ApplyBatch, reusing per-thread arg and
// result slices so the measured path is the construction, not the driver.
func batchMaker(name string, b int, build func(n int) fmulBatcher) harness.Maker {
	return func(n int) harness.Instance {
		o := build(n)
		args := make([][]uint64, n)
		res := make([][]uint64, n)
		for i := range args {
			args[i] = make([]uint64, b)
		}
		inst := instance(name, o, func(id int, rng *workload.RNG) {
			fs := args[id]
			for i := range fs {
				fs[i] = uint64(rng.Intn(1000))*2 + 3
			}
			res[id] = o.ApplyBatch(id, fs, res[id])
		})
		inst.OpsPerCall = b
		return inst
	}
}

// pairMaker adapts a stack or queue constructor: one harness operation is
// one insert+remove pair with random work between, matching the paper's
// "10^6 pairs of a push and a pop" and the Michael–Scott enq+deq benchmark
// shape it reuses for queues.
func pairMaker[C interface{ Name() string }](build func(n int) C, insert func(C, int, uint64), remove func(C, int) (uint64, bool)) harness.Maker {
	return func(n int) harness.Instance {
		c := build(n)
		return instance(c.Name(), c, func(id int, rng *workload.RNG) {
			insert(c, id, rng.Uint64())
			rng.RandomWork(workload.DefaultMaxWork)
			remove(c, id)
		})
	}
}

// Fig3StackMakers returns the Figure 3 (left) contenders.
func Fig3StackMakers() []harness.Maker {
	builds := []func(n int) stack.Interface[uint64]{
		func(n int) stack.Interface[uint64] { return stack.NewSimStack[uint64](n) },
		func(n int) stack.Interface[uint64] { return stack.NewTreiber[uint64](n) },
		func(n int) stack.Interface[uint64] { return stack.NewElimination[uint64](n) },
		func(n int) stack.Interface[uint64] { return stack.NewCLHStack[uint64](n) },
		func(n int) stack.Interface[uint64] { return stack.NewFCStack[uint64](n, 0, 0) },
	}
	var makers []harness.Maker
	for _, build := range builds {
		makers = append(makers, pairMaker(build, stack.Interface[uint64].Push, stack.Interface[uint64].Pop))
	}
	return makers
}

// Fig3QueueMakers returns the Figure 3 (right) contenders.
func Fig3QueueMakers() []harness.Maker {
	return queueMakers(
		func(n int) queue.Interface[uint64] { return queue.NewSimQueue[uint64](n) },
		func(n int) queue.Interface[uint64] { return queue.NewMSQueue[uint64](n) },
		func(n int) queue.Interface[uint64] { return queue.NewTwoLockQueue[uint64](n) },
		func(n int) queue.Interface[uint64] { return queue.NewFCQueue[uint64](n, 0, 0) },
	)
}

func queueMakers(builds ...func(n int) queue.Interface[uint64]) []harness.Maker {
	var makers []harness.Maker
	for _, build := range builds {
		makers = append(makers, pairMaker(build, queue.Interface[uint64].Enqueue, queue.Interface[uint64].Dequeue))
	}
	return makers
}

// AblationQueueMakers compares SimQueue's two Sim instances (enqueuers and
// dequeuers synchronize on separate instances) against one P-Sim that
// simulates the whole queue — the design choice §5 credits for SimQueue's
// advantage over flat combining. Both run Figure 3's enq+deq pairs.
func AblationQueueMakers() []harness.Maker {
	return queueMakers(
		func(n int) queue.Interface[uint64] { return queue.NewSimQueue[uint64](n) },
		func(n int) queue.Interface[uint64] { return newPSimQueue(n) },
	)
}

// psimQueue is a queue whose whole state — the item slice — lives in one
// P-Sim instance, so every combining round clones the slice and enqueuers
// contend with dequeuers. An operation is {1, v} to enqueue v or {0, 0} to
// dequeue; a dequeue answers {1, v}, or {0, 0} on an empty queue.
type psimQueue struct {
	u *core.PSim[[]uint64, [2]uint64, [2]uint64]
}

func newPSimQueue(n int) *psimQueue {
	apply := func(st *[]uint64, _ int, op [2]uint64) [2]uint64 {
		if op[0] == 1 {
			*st = append(*st, op[1])
			return [2]uint64{}
		}
		if len(*st) == 0 {
			return [2]uint64{}
		}
		v := (*st)[0]
		*st = (*st)[1:]
		return [2]uint64{1, v}
	}
	return &psimQueue{core.NewPSim(n, []uint64(nil), apply, core.WithClone[[]uint64](cloneWords))}
}

func (q *psimQueue) Enqueue(id int, v uint64) { q.u.Apply(id, [2]uint64{1, v}) }

func (q *psimQueue) Dequeue(id int) (uint64, bool) {
	r := q.u.Apply(id, [2]uint64{})
	return r[1], r[0] == 1
}

func (q *psimQueue) Name() string { return "P-Sim queue(1 instance)" }

// cloneWords is the clone of a P-Sim state that is a word slice.
func cloneWords(s []uint64) []uint64 { return append([]uint64(nil), s...) }

// AblationBackoffMakers compares P-Sim with adaptive backoff against P-Sim
// with backoff disabled (§4: "P-Sim achieves very good performance even if
// no backoff is employed"). The wide fixed window is fig2's P-Sim(combine).
func AblationBackoffMakers() []harness.Maker {
	return []harness.Maker{
		fmulMaker("P-Sim(backoff)", func(n int) fmul.Interface { return fmul.NewPSim(n) }),
		fmulMaker("P-Sim(none)", func(n int) fmul.Interface {
			return fmul.NewPSim(n, core.WithBackoff[uint64](1, 0))
		}),
	}
}

// AblationPublicationMakers compares the GC-based state publication against
// the paper-exact pooled/seqlock layout — on the single-word
// Fetch&Multiply state, and on an 8-word state (a slice-cloning PSim vs an
// 8-word PSimWords) where the pooled copy cost starts to matter.
func AblationPublicationMakers() []harness.Maker {
	const words = 8
	add := func(st []uint64, arg uint64) uint64 {
		prev := st[arg%words]
		st[arg%words] = prev + arg
		return prev
	}
	gcWords := func(n int) harness.Instance {
		u := core.NewPSim(n, make([]uint64, words),
			func(st *[]uint64, _ int, arg uint64) uint64 { return add(*st, arg) },
			core.WithClone[[]uint64](cloneWords))
		return instance("P-Sim(GC) s=8", u, func(id int, rng *workload.RNG) { u.Apply(id, rng.Uint64()%64) })
	}
	pooledWords := func(n int) harness.Instance {
		u := core.NewPSimWords(n, 0, make([]uint64, words),
			func(st []uint64, _ int, arg uint64) uint64 { return add(st, arg) })
		return instance("P-Sim(pool) s=8", u, func(id int, rng *workload.RNG) { u.Apply(id, rng.Uint64()%64) })
	}
	return []harness.Maker{
		fmulMaker("P-Sim(GC)", func(n int) fmul.Interface { return fmul.NewPSim(n) }),
		fmulMaker("P-Sim(pool)", func(n int) fmul.Interface { return fmul.NewPSimPooled(n) }),
		gcWords,
		pooledWords,
	}
}

// Table1Makers returns the instrumented universal constructions of the
// Table 1 experiment — theoretical Sim, P-Sim, the pooled P-Sim, L-Sim (on a
// w=2 object) and Herlihy's construction — each adding 1 per operation and
// reporting its shared-memory accesses through Instance.Accesses. Sim's
// column stays flat as n grows (the paper's O(1)); both P-Sims pay O(k)
// announce reads (the pooled one has no solo round, so it pays the
// announced round's 7 even at n = 1); L-Sim grows with contention k
// (O(kw)); Herlihy's grows with n.
func Table1Makers() []harness.Maker {
	add := func(st uint64, _ int, arg uint64) (uint64, uint64) { return st + arg, st }
	sim := func(n int) harness.Instance {
		u := core.NewSim(n, 8, uint64(0), add)
		inst := instance("Sim", u, func(id int, _ *workload.RNG) { u.ApplyOp(id, 1) })
		inst.Accesses = func() uint64 { return u.Stats().SharedAccesses }
		return inst
	}
	psim := func(n int) harness.Instance {
		u := core.NewPSim(n, uint64(0), func(st *uint64, _ int, arg uint64) uint64 {
			prev := *st
			*st = prev + arg
			return prev
		})
		inst := instance("P-Sim", u, func(id int, _ *workload.RNG) { u.Apply(id, 1) })
		inst.Accesses = func() uint64 { return u.Stats().SharedAccesses }
		return inst
	}
	pooled := func(n int) harness.Instance {
		u := core.NewPSimWords(n, 0, []uint64{0}, func(st []uint64, _ int, arg uint64) uint64 {
			prev := st[0]
			st[0] += arg
			return prev
		})
		inst := instance("P-Sim pooled", u, func(id int, _ *workload.RNG) { u.Apply(id, 1) })
		inst.Accesses = func() uint64 { return u.Stats().SharedAccesses }
		return inst
	}
	lsimW2 := func(n int) harness.Instance {
		l := lsim.New[uint64, uint64, uint64](n)
		a := l.NewRootItem(0)
		b := l.NewRootItem(0)
		// w = 2: the operation touches two items.
		op := func(m *lsim.Mem[uint64, uint64, uint64], arg uint64) uint64 {
			v := m.Read(a)
			m.Write(a, v+arg)
			m.Write(b, m.Read(b)^v)
			return v
		}
		inst := instance("L-Sim(w=2)", nil, func(id int, _ *workload.RNG) { l.ApplyOp(id, op, 1) })
		inst.Accesses = func() uint64 { return l.Stats().SharedAccesses }
		return inst
	}
	herlihyUC := func(n int) harness.Instance {
		u := herlihy.New(n, uint64(0), add)
		inst := instance("Herlihy-UC", u, func(id int, _ *workload.RNG) { u.Apply(id, 1) })
		inst.Accesses = u.SharedAccesses
		return inst
	}
	return []harness.Maker{sim, psim, pooled, lsimW2, herlihyUC}
}

// Table1Render formats the Table 1 results as a table of shared-memory
// accesses per operation, one row per thread count and one column per
// algorithm.
func Table1Render(results []harness.Result) string {
	algos := []string{}
	threads := []int{}
	seenA := map[string]bool{}
	seenT := map[int]bool{}
	cell := map[string]float64{}
	for _, r := range results {
		if !seenA[r.Impl] {
			seenA[r.Impl] = true
			algos = append(algos, r.Impl)
		}
		if !seenT[r.Threads] {
			seenT[r.Threads] = true
			threads = append(threads, r.Threads)
		}
		cell[fmt.Sprintf("%s/%d", r.Impl, r.Threads)] = r.AccessesPerOp
	}
	var b strings.Builder
	b.WriteString("measured shared-memory accesses per operation:\n")
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, a := range algos {
		fmt.Fprintf(&b, " %14s", a)
	}
	b.WriteByte('\n')
	for _, n := range threads {
		fmt.Fprintf(&b, "%-8d", n)
		for _, a := range algos {
			v, ok := cell[fmt.Sprintf("%s/%d", a, n)]
			if !ok {
				v = math.NaN()
			}
			fmt.Fprintf(&b, " %14.1f", v)
		}
		b.WriteByte('\n')
	}
	b.WriteString(`
paper Table 1 (asymptotic shared-memory accesses):
  Herlihy [17]            O(n^3 s)
  GroupUpdate [1]         O(n^2 s log n)
  IndividualUpdate [1]    O(nw + s)
  F-RedBlue [10]          O(min{k, log n})
  S-RedBlue [10]          O(k + s)
  Chuong et al. [7]       O(nw)
  Sim   (this paper)      O(1)
  P-Sim (this paper, §4)  O(k)  — announce array replaces the collect
  L-Sim (this paper)      O(kw)
`)
	return b.String()
}
