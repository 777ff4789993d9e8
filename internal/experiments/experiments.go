// Package experiments wires the repository's implementations into the
// harness configurations that regenerate every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index):
//
//	Figure 2 (left)  — Fetch&Multiply time vs threads, four techniques
//	Figure 2 (right) — average degree of helping vs threads
//	Figure 3 (left)  — stack push/pop pairs vs threads, five stacks
//	Figure 3 (right) — queue enq/deq pairs vs threads, four queues
//	Table 1          — measured shared-memory accesses per operation
//	Ablations        — backoff on/off, pooled vs GC publication, Act layout
package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fmul"
	"repro/internal/harness"
	"repro/internal/herlihy"
	"repro/internal/lsim"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/queue"
	"repro/internal/stack"
	"repro/internal/workload"
	"repro/internal/xatomic"
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

// fmulMaker adapts a fmul implementation constructor into a harness.Maker.
// Each operation multiplies by a small random odd factor (odd keeps the
// state word from collapsing to 0 mod 2^64).
func fmulMaker(name string, build func(n int) fmul.Interface, helping func(fmul.Interface) float64) harness.Maker {
	return func(n int) harness.Instance {
		o := build(n)
		inst := harness.Instance{
			Name: name,
			Op: func(id int, rng *workload.RNG) {
				o.Apply(id, uint64(rng.Intn(1000))*2+3)
			},
			Trace: traceHook(o),
		}
		if helping != nil {
			inst.Helping = func() float64 { return helping(o) }
		}
		return inst
	}
}

// Fig2Makers returns the Figure 2 contenders: P-Sim (default adaptive
// backoff and a fixed wide-window variant that maximizes combining — on a
// host with fewer cores than threads the wide window is what recreates the
// paper's helping behaviour, since goroutines are otherwise never preempted
// inside the announce→combine window), CLH spin lock, the simple lock-free
// CAS loop, and flat combining (plus MCS, which the paper measured and
// footnoted).
func Fig2Makers(withMCS bool) []harness.Maker {
	makers := []harness.Maker{
		fmulMaker("P-Sim", func(n int) fmul.Interface { return fmul.NewPSim(n) },
			func(o fmul.Interface) float64 { return o.(*fmul.PSim).Stats().AvgHelping }),
		fmulMaker("P-Sim(combine)", func(n int) fmul.Interface {
			return fmul.NewPSim(n, core.WithBackoff[uint64](512, 4096))
		},
			func(o fmul.Interface) float64 { return o.(*fmul.PSim).Stats().AvgHelping }),
		fmulMaker("CLH-lock", func(n int) fmul.Interface { return fmul.NewCLH(n) }, nil),
		fmulMaker("lock-free CAS", func(n int) fmul.Interface { return fmul.NewLockFree(n) }, nil),
		fmulMaker("FlatCombining", func(n int) fmul.Interface { return fmul.NewFC(n, 0, 0) },
			func(o fmul.Interface) float64 { return o.(*fmul.FC).Stats().AvgCombine }),
		fmulMaker("CombiningTree", func(n int) fmul.Interface { return fmul.NewCombTree(n) }, nil),
	}
	if withMCS {
		makers = append(makers, fmulMaker("MCS-lock", func(n int) fmul.Interface { return fmul.NewMCS(n) }, nil))
	}
	return makers
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
		b := b
		if b <= 1 {
			makers = append(makers,
				fmulMaker("P-Sim b=1", func(n int) fmul.Interface { return fmul.NewPSim(n) },
					func(o fmul.Interface) float64 { return o.(*fmul.PSim).Stats().AvgHelping }),
				fmulMaker("P-Sim(pool) b=1", func(n int) fmul.Interface { return fmul.NewPSimPooled(n) }, nil))
			continue
		}
		makers = append(makers,
			batchMaker(fmt.Sprintf("P-Sim b=%d", b), b,
				func(n int) fmulBatcher { return fmul.NewPSim(n) },
				func(o fmulBatcher) float64 { return o.(*fmul.PSim).Stats().AvgHelping }),
			batchMaker(fmt.Sprintf("P-Sim(pool) b=%d", b), b,
				func(n int) fmulBatcher { return fmul.NewPSimPooled(n) }, nil))
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
func batchMaker(name string, b int, build func(n int) fmulBatcher, helping func(fmulBatcher) float64) harness.Maker {
	return func(n int) harness.Instance {
		o := build(n)
		args := make([][]uint64, n)
		res := make([][]uint64, n)
		for i := range args {
			args[i] = make([]uint64, b)
		}
		inst := harness.Instance{
			Name:       name,
			OpsPerCall: b,
			Op: func(id int, rng *workload.RNG) {
				fs := args[id]
				for i := range fs {
					fs[i] = uint64(rng.Intn(1000))*2 + 3
				}
				res[id] = o.ApplyBatch(id, fs, res[id])
			},
			Trace: traceHook(o),
		}
		if helping != nil {
			inst.Helping = func() float64 { return helping(o) }
		}
		return inst
	}
}

// stackMaker adapts a stack constructor: one harness operation is one
// push+pop pair, matching the paper's "10^6 pairs of a push and a pop".
func stackMaker(build func(n int) stack.Interface[uint64], helping func(stack.Interface[uint64]) float64) harness.Maker {
	return func(n int) harness.Instance {
		s := build(n)
		inst := harness.Instance{
			Name: s.Name(),
			Op: func(id int, rng *workload.RNG) {
				s.Push(id, rng.Uint64())
				rng.RandomWork(workload.DefaultMaxWork)
				s.Pop(id)
			},
			Trace: traceHook(s),
		}
		if helping != nil {
			inst.Helping = func() float64 { return helping(s) }
		}
		return inst
	}
}

// Fig3StackMakers returns the Figure 3 (left) contenders.
func Fig3StackMakers() []harness.Maker {
	return []harness.Maker{
		stackMaker(func(n int) stack.Interface[uint64] { return stack.NewSimStack[uint64](n) },
			func(s stack.Interface[uint64]) float64 { return s.(*stack.SimStack[uint64]).Stats().AvgHelping }),
		stackMaker(func(n int) stack.Interface[uint64] { return stack.NewTreiber[uint64](n) }, nil),
		stackMaker(func(n int) stack.Interface[uint64] { return stack.NewElimination[uint64](n) }, nil),
		stackMaker(func(n int) stack.Interface[uint64] { return stack.NewCLHStack[uint64](n) }, nil),
		stackMaker(func(n int) stack.Interface[uint64] { return stack.NewFCStack[uint64](n, 0, 0) },
			func(s stack.Interface[uint64]) float64 { return s.(*stack.FCStack[uint64]).Stats().AvgCombine }),
	}
}

// queueMaker adapts a queue constructor: one harness operation is one
// enqueue+dequeue pair (the Michael–Scott benchmark shape the paper reuses).
func queueMaker(build func(n int) queue.Interface[uint64], helping func(queue.Interface[uint64]) float64) harness.Maker {
	return func(n int) harness.Instance {
		q := build(n)
		inst := harness.Instance{
			Name: q.Name(),
			Op: func(id int, rng *workload.RNG) {
				q.Enqueue(id, rng.Uint64())
				rng.RandomWork(workload.DefaultMaxWork)
				q.Dequeue(id)
			},
			Trace: traceHook(q),
		}
		if helping != nil {
			inst.Helping = func() float64 { return helping(q) }
		}
		return inst
	}
}

// Fig3QueueMakers returns the Figure 3 (right) contenders.
func Fig3QueueMakers() []harness.Maker {
	return []harness.Maker{
		queueMaker(func(n int) queue.Interface[uint64] { return queue.NewSimQueue[uint64](n) },
			func(q queue.Interface[uint64]) float64 { return q.(*queue.SimQueue[uint64]).Stats().AvgHelping }),
		queueMaker(func(n int) queue.Interface[uint64] { return queue.NewMSQueue[uint64](n) }, nil),
		queueMaker(func(n int) queue.Interface[uint64] { return queue.NewTwoLockQueue[uint64](n) }, nil),
		queueMaker(func(n int) queue.Interface[uint64] { return queue.NewFCQueue[uint64](n, 0, 0) },
			func(q queue.Interface[uint64]) float64 { return q.(*queue.FCQueue[uint64]).Stats().AvgCombine }),
	}
}

// AblationBackoffMakers compares P-Sim with adaptive backoff against P-Sim
// with backoff disabled (§4: "P-Sim achieves very good performance even if
// no backoff is employed").
func AblationBackoffMakers() []harness.Maker {
	return []harness.Maker{
		fmulMaker("P-Sim(backoff)", func(n int) fmul.Interface { return fmul.NewPSim(n) }, nil),
		fmulMaker("P-Sim(none)", func(n int) fmul.Interface {
			return fmul.NewPSim(n, core.WithBackoff[uint64](1, 0))
		}, nil),
	}
}

// AblationPublicationMakers compares the GC-based state publication against
// the paper-exact pooled/seqlock layout.
func AblationPublicationMakers() []harness.Maker {
	return []harness.Maker{
		fmulMaker("P-Sim(GC)", func(n int) fmul.Interface { return fmul.NewPSim(n) }, nil),
		fmulMaker("P-Sim(pool)", func(n int) fmul.Interface { return fmul.NewPSimPooled(n) }, nil),
	}
}

// AblationActLayoutMakers compares the paper's dense Act vector layout with
// a one-word-per-cache-line layout.
func AblationActLayoutMakers() []harness.Maker {
	return []harness.Maker{
		fmulMaker("Act-dense", func(n int) fmul.Interface { return fmul.NewPSim(n) }, nil),
		fmulMaker("Act-padded", func(n int) fmul.Interface {
			return fmul.NewPSim(n, core.WithPaddedAct[uint64]())
		}, nil),
	}
}

// Table1Row is one measured row of the Table 1 experiment.
type Table1Row struct {
	Algorithm   string
	Threads     int
	Ops         uint64
	AccessesPer float64
}

// Table1Measure runs opsPerThread operations per thread on each instrumented
// universal construction — theoretical Sim, L-Sim (on a w=2 object) and
// Herlihy's construction — and reports measured shared accesses per
// operation. Sim's column stays flat as n grows (the paper's O(1)); L-Sim
// grows with contention k (O(kw)); Herlihy's grows with n.
func Table1Measure(threadCounts []int, opsPerThread int) []Table1Row {
	var rows []Table1Row
	for _, n := range threadCounts {
		rows = append(rows, measureSim(n, opsPerThread))
		rows = append(rows, measurePSim(n, opsPerThread))
		rows = append(rows, measureLSim(n, opsPerThread))
		rows = append(rows, measureHerlihy(n, opsPerThread))
	}
	return rows
}

func measurePSim(n, opsPerThread int) Table1Row {
	u := core.NewPSim(n, uint64(0), func(st *uint64, _ int, arg uint64) uint64 {
		prev := *st
		*st = prev + arg
		return prev
	})
	c := xatomic.NewAccessCounter(n)
	u.SetAccessCounter(c)
	runThreads(n, opsPerThread, func(id, _ int) { u.Apply(id, 1) })
	total := uint64(n * opsPerThread)
	return Table1Row{Algorithm: "P-Sim", Threads: n, Ops: total,
		AccessesPer: float64(c.Total()) / float64(total)}
}

func runThreads(n, opsPerThread int, op func(id, k int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < opsPerThread; k++ {
				op(id, k)
			}
		}(i)
	}
	wg.Wait()
}

func measureSim(n, opsPerThread int) Table1Row {
	u := core.NewSim(n, 8, uint64(0), func(st uint64, _ int, op uint64) (uint64, uint64) {
		return st + op, st
	})
	c := xatomic.NewAccessCounter(n)
	u.SetAccessCounter(c)
	runThreads(n, opsPerThread, func(id, _ int) { u.ApplyOp(id, 1) })
	total := uint64(n * opsPerThread)
	return Table1Row{Algorithm: "Sim", Threads: n, Ops: total,
		AccessesPer: float64(c.Total()) / float64(total)}
}

func measureLSim(n, opsPerThread int) Table1Row {
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
	c := xatomic.NewAccessCounter(n)
	l.SetAccessCounter(c)
	runThreads(n, opsPerThread, func(id, _ int) { l.ApplyOp(id, op, 1) })
	total := uint64(n * opsPerThread)
	return Table1Row{Algorithm: "L-Sim(w=2)", Threads: n, Ops: total,
		AccessesPer: float64(c.Total()) / float64(total)}
}

func measureHerlihy(n, opsPerThread int) Table1Row {
	u := herlihy.New(n, uint64(0), func(st uint64, _ int, arg uint64) (uint64, uint64) {
		return st + arg, st
	})
	c := xatomic.NewAccessCounter(n)
	u.SetAccessCounter(c)
	runThreads(n, opsPerThread, func(id, _ int) { u.Apply(id, 1) })
	total := uint64(n * opsPerThread)
	return Table1Row{Algorithm: "Herlihy-UC", Threads: n, Ops: total,
		AccessesPer: float64(c.Total()) / float64(total)}
}

// Table1Render formats measured rows as a table with one row per thread
// count and one column per algorithm.
func Table1Render(rows []Table1Row) string {
	algos := []string{}
	threads := []int{}
	seenA := map[string]bool{}
	seenT := map[int]bool{}
	cell := map[string]float64{}
	for _, r := range rows {
		if !seenA[r.Algorithm] {
			seenA[r.Algorithm] = true
			algos = append(algos, r.Algorithm)
		}
		if !seenT[r.Threads] {
			seenT[r.Threads] = true
			threads = append(threads, r.Threads)
		}
		cell[fmt.Sprintf("%s/%d", r.Algorithm, r.Threads)] = r.AccessesPer
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
