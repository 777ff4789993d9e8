// Microbenchmarks that have no simbench experiment: the map and tiered
// store at the daemons' shapes, and the cost of the observability plane.
// The paper's experiments (Figures 2–3, Table 1, the ablations) run only
// through cmd/simbench, e.g. `go run ./cmd/simbench -experiment fig2`.
package simuc_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fmul"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/simmap"
	"repro/internal/workload"
)

// benchThreads are the thread counts the overhead benchmarks sweep.
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
