// Benchmarks regenerating the paper's evaluation via `go test -bench`.
// One family per table/figure (DESIGN.md per-experiment index):
//
//	BenchmarkFigure2        — Fetch&Multiply under each technique (Fig. 2 left;
//	                          the reported helping/publish metric is Fig. 2 right)
//	BenchmarkFigure3Stack   — push+pop pairs under each stack (Fig. 3 left)
//	BenchmarkFigure3Queue   — enq+deq pairs under each queue (Fig. 3 right)
//	BenchmarkTable1         — shared-memory accesses per operation (Table 1)
//	BenchmarkAblation*      — design-choice ablations called out in DESIGN.md
//
// The full sweep (paper-scale op counts, thread axis 1..32, 10 repetitions,
// CSV output) lives in cmd/simbench; these benches are the quick
// `go test -bench=. -benchmem` view of the same experiments.
package simuc_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fmul"
	"repro/internal/herlihy"
	"repro/internal/lsim"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/queue"
	"repro/internal/simmap"
	"repro/internal/stack"
	"repro/internal/workload"
)

// benchThreads are the thread counts each family sweeps. The paper's x axis
// is 1..32; benches keep three representative points and cmd/simbench does
// the full axis.
var benchThreads = []int{1, 4, 16}

// runConcurrent distributes b.N operations over n goroutines with the
// paper's random inter-operation work and reports ns/op over all of them.
func runConcurrent(b *testing.B, n int, op func(id int, rng *workload.RNG)) {
	b.Helper()
	per := (b.N + n - 1) / n
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer done.Done()
			rng := workload.NewRNG(uint64(id) + 1)
			start.Wait()
			for k := 0; k < per; k++ {
				op(id, rng)
				rng.RandomWork(workload.DefaultMaxWork)
			}
		}(i)
	}
	b.ResetTimer()
	start.Done()
	done.Wait()
}

// --- Figure 2: Fetch&Multiply ---

func BenchmarkFigure2(b *testing.B) {
	type entry struct {
		name    string
		build   func(n int) fmul.Interface
		helping func(fmul.Interface) float64
	}
	entries := []entry{
		{"P-Sim", func(n int) fmul.Interface { return fmul.NewPSim(n) },
			func(o fmul.Interface) float64 { return o.(*fmul.PSim).Stats().AvgHelping }},
		{"P-Sim-combine", func(n int) fmul.Interface {
			return fmul.NewPSim(n, core.WithBackoff[uint64](512, 4096))
		}, func(o fmul.Interface) float64 { return o.(*fmul.PSim).Stats().AvgHelping }},
		{"CLH-lock", func(n int) fmul.Interface { return fmul.NewCLH(n) }, nil},
		{"MCS-lock", func(n int) fmul.Interface { return fmul.NewMCS(n) }, nil},
		{"lock-free-CAS", func(n int) fmul.Interface { return fmul.NewLockFree(n) }, nil},
		{"FlatCombining", func(n int) fmul.Interface { return fmul.NewFC(n, 0, 0) },
			func(o fmul.Interface) float64 { return o.(*fmul.FC).Stats().AvgCombine }},
		{"CombiningTree", func(n int) fmul.Interface { return fmul.NewCombTree(n) }, nil},
	}
	for _, e := range entries {
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", e.name, n), func(b *testing.B) {
				o := e.build(n)
				runConcurrent(b, n, func(id int, rng *workload.RNG) {
					o.Apply(id, uint64(rng.Intn(1000))*2+3)
				})
				if e.helping != nil {
					b.ReportMetric(e.helping(o), "helping/publish")
				}
			})
		}
	}
}

// --- Figure 3 (left): stacks, one op = one push+pop pair ---

func BenchmarkFigure3Stack(b *testing.B) {
	builders := []func(n int) stack.Interface[uint64]{
		func(n int) stack.Interface[uint64] { return stack.NewSimStack[uint64](n) },
		func(n int) stack.Interface[uint64] { return stack.NewTreiber[uint64](n) },
		func(n int) stack.Interface[uint64] { return stack.NewElimination[uint64](n) },
		func(n int) stack.Interface[uint64] { return stack.NewCLHStack[uint64](n) },
		func(n int) stack.Interface[uint64] { return stack.NewFCStack[uint64](n, 0, 0) },
	}
	for _, build := range builders {
		name := build(1).Name()
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", name, n), func(b *testing.B) {
				s := build(n)
				runConcurrent(b, n, func(id int, rng *workload.RNG) {
					s.Push(id, rng.Uint64())
					rng.RandomWork(workload.DefaultMaxWork)
					s.Pop(id)
				})
			})
		}
	}
}

// --- Figure 3 (right): queues, one op = one enq+deq pair ---

func BenchmarkFigure3Queue(b *testing.B) {
	builders := []func(n int) queue.Interface[uint64]{
		func(n int) queue.Interface[uint64] { return queue.NewSimQueue[uint64](n) },
		func(n int) queue.Interface[uint64] { return queue.NewMSQueue[uint64](n) },
		func(n int) queue.Interface[uint64] { return queue.NewTwoLockQueue[uint64](n) },
		func(n int) queue.Interface[uint64] { return queue.NewFCQueue[uint64](n, 0, 0) },
	}
	for _, build := range builders {
		name := build(1).Name()
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", name, n), func(b *testing.B) {
				q := build(n)
				runConcurrent(b, n, func(id int, rng *workload.RNG) {
					q.Enqueue(id, rng.Uint64())
					rng.RandomWork(workload.DefaultMaxWork)
					q.Dequeue(id)
				})
			})
		}
	}
}

// --- Table 1: measured shared-memory accesses per operation ---

func BenchmarkTable1(b *testing.B) {
	type run struct {
		op       func(id int)
		accesses func() uint64
	}
	cases := []struct {
		name  string
		build func(n int) run
	}{
		{"Sim", func(n int) run {
			u := core.NewSim(n, 8, uint64(0), func(st uint64, _ int, op uint64) (uint64, uint64) {
				return st + op, st
			})
			return run{func(id int) { u.ApplyOp(id, 1) }, func() uint64 { return u.Stats().SharedAccesses }}
		}},
		{"PSim", func(n int) run {
			u := core.NewPSim(n, uint64(0), func(st *uint64, _ int, arg uint64) uint64 {
				prev := *st
				*st = prev + arg
				return prev
			})
			return run{func(id int) { u.Apply(id, 1) }, func() uint64 { return u.Stats().SharedAccesses }}
		}},
		{"LSim", func(n int) run {
			l := lsim.New[uint64, uint64, uint64](n)
			item := l.NewRootItem(0)
			op := func(m *lsim.Mem[uint64, uint64, uint64], arg uint64) uint64 {
				v := m.Read(item)
				m.Write(item, v+arg)
				return v
			}
			return run{func(id int) { l.ApplyOp(id, op, 1) }, func() uint64 { return l.Stats().SharedAccesses }}
		}},
		{"Herlihy", func(n int) run {
			u := herlihy.New(n, uint64(0), func(st uint64, _ int, arg uint64) (uint64, uint64) {
				return st + arg, st
			})
			return run{func(id int) { u.Apply(id, 1) }, u.SharedAccesses}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for _, n := range benchThreads {
				b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
					r := c.build(n)
					runConcurrent(b, n, func(id int, _ *workload.RNG) { r.op(id) })
					b.ReportMetric(float64(r.accesses())/float64(b.N), "accesses/op")
				})
			}
		})
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationBackoff: §4 claims P-Sim performs well even with no
// backoff; this measures the gap.
func BenchmarkAblationBackoff(b *testing.B) {
	configs := []struct {
		name  string
		build func(n int) *fmul.PSim
	}{
		{"adaptive", func(n int) *fmul.PSim { return fmul.NewPSim(n) }},
		{"none", func(n int) *fmul.PSim { return fmul.NewPSim(n, core.WithBackoff[uint64](1, 0)) }},
		{"wide", func(n int) *fmul.PSim { return fmul.NewPSim(n, core.WithBackoff[uint64](512, 4096)) }},
	}
	for _, cfg := range configs {
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", cfg.name, n), func(b *testing.B) {
				o := cfg.build(n)
				runConcurrent(b, n, func(id int, rng *workload.RNG) {
					o.Apply(id, 3)
				})
				b.ReportMetric(o.Stats().AvgHelping, "helping/publish")
			})
		}
	}
}

// BenchmarkAblationPublication: GC pointer publication vs the paper-exact
// pooled records with seqlock stamps and a timestamped index CAS — on the
// single-word Fetch&Multiply state and on an 8-word state (PSimWords vs a
// slice-cloning PSim), where the pooled copy cost starts to matter.
func BenchmarkAblationPublication(b *testing.B) {
	configs := []struct {
		name  string
		build func(n int) fmul.Interface
	}{
		{"gc", func(n int) fmul.Interface { return fmul.NewPSim(n) }},
		{"pooled", func(n int) fmul.Interface { return fmul.NewPSimPooled(n) }},
	}
	for _, cfg := range configs {
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", cfg.name, n), func(b *testing.B) {
				o := cfg.build(n)
				runConcurrent(b, n, func(id int, rng *workload.RNG) {
					o.Apply(id, 3)
				})
			})
		}
	}

	const sWords = 8
	for _, n := range benchThreads {
		b.Run(fmt.Sprintf("gc-multiword/threads=%d", n), func(b *testing.B) {
			u := core.NewPSim(n, make([]uint64, sWords),
				func(st *[]uint64, _ int, arg uint64) uint64 {
					prev := (*st)[arg%sWords]
					(*st)[arg%sWords] = prev + arg
					return prev
				},
				core.WithClone[[]uint64](func(s []uint64) []uint64 {
					return append([]uint64(nil), s...)
				}))
			runConcurrent(b, n, func(id int, rng *workload.RNG) {
				u.Apply(id, rng.Uint64()%64)
			})
		})
		b.Run(fmt.Sprintf("pooled-multiword/threads=%d", n), func(b *testing.B) {
			u := core.NewPSimWords(n, 0, make([]uint64, sWords),
				func(st []uint64, _ int, arg uint64) uint64 {
					prev := st[arg%sWords]
					st[arg%sWords] = prev + arg
					return prev
				})
			runConcurrent(b, n, func(id int, rng *workload.RNG) {
				u.Apply(id, rng.Uint64()%64)
			})
		})
	}
}

// BenchmarkAblationActLayout: the paper's dense Act vector (minimum cache
// lines, §4) vs one word per line.
func BenchmarkAblationActLayout(b *testing.B) {
	configs := []struct {
		name  string
		build func(n int) fmul.Interface
	}{
		{"dense", func(n int) fmul.Interface { return fmul.NewPSim(n) }},
		{"padded", func(n int) fmul.Interface { return fmul.NewPSim(n, core.WithPaddedAct[uint64]()) }},
	}
	for _, cfg := range configs {
		for _, n := range []int{16, 64, 128} { // layout matters only with many words
			b.Run(fmt.Sprintf("%s/threads=%d", cfg.name, n), func(b *testing.B) {
				o := cfg.build(n)
				runConcurrent(b, n, func(id int, rng *workload.RNG) {
					o.Apply(id, 3)
				})
			})
		}
	}
}

// BenchmarkLargeObject: L-Sim vs P-Sim as the object grows — the paper's
// deferred L-Sim experiment (§1/§6). P-Sim's per-op cost is O(s) (it clones
// the array every round); L-Sim's is O(kw) with w=2 here, independent of s.
func BenchmarkLargeObject(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("P-Sim/size=%d", size), func(b *testing.B) {
			u := core.NewPSim(2, make([]uint64, size),
				func(st *[]uint64, _ int, arg [2]uint64) uint64 {
					va := (*st)[arg[0]]
					(*st)[arg[0]] = va + 1
					(*st)[arg[1]] ^= va
					return va
				},
				core.WithClone[[]uint64](func(s []uint64) []uint64 {
					return append([]uint64(nil), s...)
				}))
			runConcurrent(b, 2, func(id int, rng *workload.RNG) {
				u.Apply(id, [2]uint64{uint64(rng.Intn(size)), uint64(rng.Intn(size))})
			})
		})
		b.Run(fmt.Sprintf("L-Sim/size=%d", size), func(b *testing.B) {
			l := lsim.New[uint64, [2]uint64, uint64](2)
			items := make([]*lsim.Item[uint64], size)
			for i := range items {
				items[i] = l.NewRootItem(0)
			}
			op := func(m *lsim.Mem[uint64, [2]uint64, uint64], arg [2]uint64) uint64 {
				a, bb := items[arg[0]], items[arg[1]]
				va := m.Read(a)
				m.Write(a, va+1)
				m.Write(bb, m.Read(bb)^va)
				return va
			}
			runConcurrent(b, 2, func(id int, rng *workload.RNG) {
				l.ApplyOp(id, op, [2]uint64{uint64(rng.Intn(size)), uint64(rng.Intn(size))})
			})
		})
	}
}

// BenchmarkMapStripes: the striped wait-free map vs a single-instance map —
// what generalizing SimQueue's multiple-instances trick buys.
func BenchmarkMapStripes(b *testing.B) {
	for _, stripes := range []int{1, 8} {
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("stripes=%d/threads=%d", stripes, n), func(b *testing.B) {
				m := simmap.New[uint64, uint64](n, stripes)
				runConcurrent(b, n, func(id int, rng *workload.RNG) {
					k := rng.Uint64() % 512
					if rng.Intn(4) == 0 {
						m.Delete(id, k)
					} else {
						m.Put(id, k, k)
					}
				})
			})
		}
	}
}

// BenchmarkMapPutGet16k: per-op cost of the map at kv-store's shape (16384
// string keys, 16 stripes, one process) — an overwriting Put copies the
// trie path to its key, a Get descends it. Run with -benchmem.
func BenchmarkMapPutGet16k(b *testing.B) {
	m, ks := map16k()
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Put(0, ks[(i*7919)%len(ks)], uint64(i))
		}
	})
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Get(ks[(i*7919)%len(ks)])
		}
	})
}

// BenchmarkTieredPut: the cost of one large-tier overwrite at kv-blob's
// shape (4 KiB values, 256 keys, one process) in a Tiered store built for
// n processes. Each Put is one L-Sim operation of six rounds, so the n=64
// ÷ n=1 ratio is L-Sim's round cost in n, independent of the host.
func BenchmarkTieredPut(b *testing.B) {
	val := make([]byte, 4096)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("blob-%d", i)
	}
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := simmap.NewTiered[string](n, n, 1024)
			for _, k := range keys {
				t.Put(0, k, val)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Put(0, keys[i%len(keys)], val)
			}
		})
	}
}

// BenchmarkAblationQueueInstances: SimQueue's two Sim instances vs a single
// P-Sim simulating the whole queue (head and tail in one state) — the design
// choice §5 credits for SimQueue's advantage over flat combining.
func BenchmarkAblationQueueInstances(b *testing.B) {
	type singleQueueState struct {
		items []uint64
	}
	buildSingle := func(n int) func(id int, enq bool, v uint64) (uint64, bool) {
		u := core.NewPSim(n, singleQueueState{},
			func(st *singleQueueState, _ int, op [2]uint64) [2]uint64 {
				if op[0] == 1 { // enqueue
					st.items = append(st.items, op[1])
					return [2]uint64{0, 0}
				}
				if len(st.items) == 0 {
					return [2]uint64{0, 0}
				}
				v := st.items[0]
				st.items = st.items[1:]
				return [2]uint64{1, v}
			},
			core.WithClone[singleQueueState](func(s singleQueueState) singleQueueState {
				return singleQueueState{items: append([]uint64(nil), s.items...)}
			}))
		return func(id int, enq bool, v uint64) (uint64, bool) {
			if enq {
				u.Apply(id, [2]uint64{1, v})
				return 0, true
			}
			r := u.Apply(id, [2]uint64{0, 0})
			return r[1], r[0] == 1
		}
	}
	for _, n := range benchThreads {
		b.Run(fmt.Sprintf("two-instances/threads=%d", n), func(b *testing.B) {
			q := queue.NewSimQueue[uint64](n)
			runConcurrent(b, n, func(id int, rng *workload.RNG) {
				q.Enqueue(id, rng.Uint64())
				q.Dequeue(id)
			})
		})
		b.Run(fmt.Sprintf("single-instance/threads=%d", n), func(b *testing.B) {
			q := buildSingle(n)
			runConcurrent(b, n, func(id int, rng *workload.RNG) {
				q(id, true, rng.Uint64())
				q(id, false, 0)
			})
		})
	}
}

// BenchmarkObsOverhead: the acceptance gate for the observability plane —
// the P-Sim Fetch&Multiply benchmark with and without full instrumentation
// (registered counters plus a SimRecorder at the default sampling rate).
// The exact counters are the very slots the construction already maintains
// for Stats, so registering them costs nothing per operation; the "on" rows
// additionally pay the recorder's sampling gate every op and its clock reads
// plus histogram stores on one op in 64. The requirement is < 5% throughput
// loss versus "off".
func BenchmarkObsOverhead(b *testing.B) {
	for _, instrumented := range []bool{false, true} {
		label := "off"
		if instrumented {
			label = "on"
		}
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", label, n), func(b *testing.B) {
				o := fmul.NewPSim(n)
				if instrumented {
					reg := obs.NewRegistry()
					o.Attach(reg, "bench", obs.NewSimRecorder(reg, "bench", n), nil)
				}
				runConcurrent(b, n, func(id int, rng *workload.RNG) {
					o.Apply(id, uint64(rng.Intn(1000))*2+3)
				})
			})
		}
	}
}

// BenchmarkTraceOverhead: the acceptance gate for the flight recorder —
// the same P-Sim Fetch&Multiply benchmark with tracing disabled (nil
// tracer: one predictable branch per event site), enabled at the default
// 1-in-64 sampling (CI comparison target: within noise of "off"), and
// enabled at sample=1 (the worst case, every op writes ring events).
func BenchmarkTraceOverhead(b *testing.B) {
	for _, mode := range []struct {
		label  string
		sample int // 0 = tracing off
	}{{"off", 0}, {"sampled", obs.DefaultSampleEvery}, {"every-op", 1}} {
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", mode.label, n), func(b *testing.B) {
				o := fmul.NewPSim(n)
				if mode.sample > 0 {
					o.Attach(nil, "", nil, trace.New(n, trace.WithSampleEvery(mode.sample)))
				}
				runConcurrent(b, n, func(id int, rng *workload.RNG) {
					o.Apply(id, uint64(rng.Intn(1000))*2+3)
				})
			})
		}
	}
}

// BenchmarkObsPrimitives: raw cost of the wait-free metric primitives — the
// single-writer counter and histogram stores, the sampled and unsampled
// recorder paths, and the disabled (nil recorder) path.
func BenchmarkObsPrimitives(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		c := obs.NewCounter(1)
		for i := 0; i < b.N; i++ {
			c.Inc(0)
		}
	})
	b.Run("histogram-record", func(b *testing.B) {
		h := obs.NewHistogram(1)
		for i := 0; i < b.N; i++ {
			h.Record(0, uint64(i))
		}
	})
	b.Run("counter-inc-nil", func(b *testing.B) {
		var c *obs.Counter
		for i := 0; i < b.N; i++ {
			c.Inc(0)
		}
	})
	b.Run("recorder-sampled", func(b *testing.B) {
		// Every op through the full clock + histogram path.
		reg := obs.NewRegistry()
		r := obs.NewSimRecorder(reg, "bench", 1)
		r.SetSampleEvery(1)
		for i := 0; i < b.N; i++ {
			r.OpPublished(0, r.Start(0), 1)
		}
	})
	b.Run("recorder-default", func(b *testing.B) {
		// The production path: sampling gate every op, clock 1-in-64.
		reg := obs.NewRegistry()
		r := obs.NewSimRecorder(reg, "bench", 1)
		for i := 0; i < b.N; i++ {
			r.OpPublished(0, r.Start(0), 1)
		}
	})
	b.Run("recorder-nil", func(b *testing.B) {
		var r *obs.SimRecorder
		for i := 0; i < b.N; i++ {
			r.OpPublished(0, r.Start(0), 1)
		}
	})
}
