// Package harness drives the paper's experiments: it runs a fixed total
// number of operations split across n goroutines (each inserting the random
// dummy-loop work of §4 between operations), repeats every configuration,
// and reports mean wall-clock time, throughput, and the average degree of
// helping. Output formats match what the figures need: aligned text tables,
// charts, the speedup ratios the paper quotes ("Sim is up to 2.36 times
// faster than spin locks"), and one machine-readable JSON document.
package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/workload"
)

// Config describes one experiment sweep.
type Config struct {
	Threads  []int // thread counts to sweep (the figures' x axis)
	TotalOps int   // operations per run, split evenly across threads
	MaxWork  int   // max dummy-loop iterations between operations (§4: 512)
	Reps     int   // repetitions per configuration (paper: 10)
	Seed     uint64

	// Latency enables per-operation latency recording into a wait-free
	// per-thread histogram (internal/obs): Result gains the p50/p99/max
	// distribution the figures' mean throughput hides. Off by default: the
	// two monotonic clock reads per operation are comparable to a wait-free
	// operation itself, so recording visibly inflates the mean times the
	// harness exists to measure.
	Latency bool

	// Registry, when non-nil, makes the latency histogram a live registered
	// metric ("harness_op_latency_ns") and counts every logical operation
	// into "harness_ops_total", so an external watcher (simbench's
	// -obs-every dumper or the telemetry timeline behind -timeline-dump)
	// sees a "harness" series while a run is in flight. Implies latency
	// recording.
	Registry *obs.Registry

	// Tracer, when non-nil, is attached to every instance that supports
	// flight recording (Instance.Trace non-nil) before its run starts.
	// Runs of every width share the tracer, so size it to the sweep's max
	// thread count. Instances rebuilt each rep re-attach to the same rings;
	// the recorder keeps only the newest events anyway (overwrite-oldest).
	Tracer *trace.Tracer
}

// Instance is one ready-to-run implementation under test: Op performs a
// single operation for process id; Helping reports the average combining
// degree at the end of the run (NaN when the notion does not apply).
type Instance struct {
	Name    string
	Op      func(id int, rng *workload.RNG)
	Helping func() float64

	// Accesses, when non-nil, reports the shared-memory accesses the
	// instance has made so far — Table 1's metric, for the instrumented
	// constructions.
	Accesses func() uint64

	// OpsPerCall is the number of logical operations one Op call performs
	// (a batched instance sets its batch size; 0 means 1). The harness
	// divides the per-thread call count by it so every instance of a sweep
	// executes the same number of LOGICAL operations, and throughput /
	// allocs-per-op are reported per logical operation.
	OpsPerCall int

	// Trace, when non-nil, attaches a flight recorder to the instance
	// (called once before the run when Config.Tracer is set). Makers for
	// implementations without tracing hooks leave it nil.
	Trace func(tr *trace.Tracer)
}

// Maker builds a fresh Instance for a run with n threads. A fresh instance
// per run keeps state (and pools, publication lists, …) unshared between
// repetitions.
type Maker func(n int) Instance

// Result is one (implementation, thread-count) cell of an experiment.
type Result struct {
	Impl       string
	Threads    int
	Batch      int // logical operations per call (1 unless batched)
	TotalOps   int // logical operations actually executed
	Reps       int
	MeanSec    float64
	StdevSec   float64
	MinSec     float64
	MaxSec     float64
	Throughput float64 // ops per second at the mean
	AvgHelping float64 // NaN if not applicable

	// AccessesPerOp is the last repetition's shared-memory accesses per
	// operation (NaN when the instance does not count them).
	AccessesPerOp float64

	// AllocsPerOp is the heap-allocation count per operation, taken as the
	// minimum over repetitions of the runtime.MemStats.Mallocs delta around
	// the timed section divided by TotalOps. The minimum is the steady-state
	// figure: early reps pay one-time warm-up (rings, pools, goroutine
	// stacks) that later reps amortize away.
	AllocsPerOp float64

	// Latency is the per-operation latency distribution over all reps
	// (empty when Config.Latency is off). P50/P99 come from
	// Latency.Quantile; Max is exact.
	Latency obs.HistSnapshot
}

// Run executes the sweep and returns one Result per (maker, thread count).
func Run(cfg Config, makers []Maker) []Result {
	var results []Result
	for _, maker := range makers {
		for _, n := range cfg.Threads {
			results = append(results, runOne(cfg, maker, n))
		}
	}
	return results
}

// latencyHist returns the histogram a run should record into: a registered
// live metric when cfg.Registry is set, a private one when only cfg.Latency
// is, nil (recording off) otherwise. Registered histograms are sized to the
// sweep's max thread count because runs of every width share them.
func latencyHist(cfg Config, n int) *obs.Histogram {
	if cfg.Registry != nil {
		return cfg.Registry.Histogram("harness_op_latency_ns", maxThreads(cfg, n))
	}
	if cfg.Latency {
		return obs.NewHistogram(n)
	}
	return nil
}

// opsCounter returns the live logical-operation counter when cfg.Registry
// is set (nil otherwise). Like the histogram it is shared by runs of every
// width, so it is sized to the sweep's max thread count.
func opsCounter(cfg Config, n int) *obs.Counter {
	if cfg.Registry == nil {
		return nil
	}
	return cfg.Registry.Counter("harness_ops_total", maxThreads(cfg, n))
}

func maxThreads(cfg Config, n int) int {
	for _, t := range cfg.Threads {
		if t > n {
			n = t
		}
	}
	return n
}

func runOne(cfg Config, maker Maker, n int) Result {
	times := make([]float64, 0, cfg.Reps)
	helping, accesses := math.NaN(), math.NaN()
	allocs := math.Inf(1)
	var name string
	batch, totalOps := 1, cfg.TotalOps
	hist := latencyHist(cfg, n)
	opsC := opsCounter(cfg, n)
	before := hist.Snapshot() // shared registry metric: delta out other runs
	var ms runtime.MemStats
	for rep := 0; rep < cfg.Reps; rep++ {
		inst := maker(n)
		name = inst.Name
		if inst.OpsPerCall > 1 {
			batch = inst.OpsPerCall
		}
		if cfg.Tracer != nil && inst.Trace != nil {
			inst.Trace(cfg.Tracer)
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		sec, ops := timeRun(cfg, inst, n, uint64(rep)+cfg.Seed, hist, opsC)
		times = append(times, sec)
		totalOps = ops
		runtime.ReadMemStats(&ms)
		if a := float64(ms.Mallocs-m0) / float64(ops); a < allocs {
			allocs = a
		}
		if rep == cfg.Reps-1 && inst.Helping != nil {
			helping = inst.Helping()
		}
		if rep == cfg.Reps-1 && inst.Accesses != nil {
			accesses = float64(inst.Accesses()) / float64(ops)
		}
	}
	mean, stdev := meanStdev(times)
	r := Result{
		Impl: name, Threads: n, Batch: batch,
		TotalOps: totalOps, Reps: cfg.Reps,
		MeanSec: mean, StdevSec: stdev,
		MinSec: minOf(times), MaxSec: maxOf(times),
		AvgHelping:    helping,
		AccessesPerOp: accesses,
		AllocsPerOp:   allocs,
	}
	if hist != nil {
		r.Latency = hist.Snapshot()
		r.Latency.Sub(before)
	}
	if mean > 0 {
		r.Throughput = float64(totalOps) / mean
	}
	return r
}

// timeRun measures one run: n goroutines, each performing TotalOps/n
// logical operations (an instance whose Op covers OpsPerCall operations is
// called proportionally fewer times), with random local work between calls.
// It returns the wall-clock seconds and the number of LOGICAL operations
// actually executed. A non-nil hist additionally records each call's
// latency into the goroutine's private slot; a non-nil opsC counts logical
// operations the same way (both per-thread wait-free writes).
func timeRun(cfg Config, inst Instance, n int, seed uint64, hist *obs.Histogram, opsC *obs.Counter) (float64, int) {
	opsPer := cfg.TotalOps / n
	if opsPer == 0 {
		opsPer = 1
	}
	if b := inst.OpsPerCall; b > 1 {
		opsPer /= b
		if opsPer == 0 {
			opsPer = 1
		}
	}
	logical := uint64(1)
	if inst.OpsPerCall > 1 {
		logical = uint64(inst.OpsPerCall)
	}
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer done.Done()
			rng := workload.NewRNG(seed*0x1000193 + uint64(id) + 1)
			start.Wait()
			if hist != nil {
				for k := 0; k < opsPer; k++ {
					o0 := time.Now()
					inst.Op(id, rng)
					hist.Record(id, uint64(time.Since(o0)))
					if opsC != nil {
						opsC.Add(id, logical)
					}
					rng.RandomWork(cfg.MaxWork)
				}
				return
			}
			for k := 0; k < opsPer; k++ {
				inst.Op(id, rng)
				rng.RandomWork(cfg.MaxWork)
			}
		}(i)
	}
	t0 := time.Now()
	start.Done()
	done.Wait()
	b := inst.OpsPerCall
	if b < 1 {
		b = 1
	}
	return time.Since(t0).Seconds(), opsPer * b * n
}

func meanStdev(xs []float64) (mean, stdev float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Table renders the results as an aligned text table: one row per thread
// count, one column per implementation, cells showing mean milliseconds.
func Table(results []Result) string {
	impls, threads := axes(results)
	cell := index(results)

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, im := range impls {
		fmt.Fprintf(&b, " %14s", im)
	}
	b.WriteByte('\n')
	for _, n := range threads {
		fmt.Fprintf(&b, "%-8d", n)
		for _, im := range impls {
			if r, ok := cell[key{im, n}]; ok {
				fmt.Fprintf(&b, " %12.2fms", r.MeanSec*1e3)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HelpingTable renders the average helping degree per (impl, threads) —
// Figure 2's right-hand plot.
func HelpingTable(results []Result) string {
	impls, threads := axes(results)
	cell := index(results)

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, im := range impls {
		fmt.Fprintf(&b, " %14s", im)
	}
	b.WriteByte('\n')
	for _, n := range threads {
		fmt.Fprintf(&b, "%-8d", n)
		for _, im := range impls {
			r, ok := cell[key{im, n}]
			if !ok || math.IsNaN(r.AvgHelping) {
				fmt.Fprintf(&b, " %14s", "-")
			} else {
				fmt.Fprintf(&b, " %14.2f", r.AvgHelping)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LatencyTable renders the per-operation latency distribution per
// (impl, threads): p50 / p99 / max microseconds. Implementations without
// recorded latency show "-".
func LatencyTable(results []Result) string {
	impls, threads := axes(results)
	cell := index(results)

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, im := range impls {
		fmt.Fprintf(&b, " %24s", im+" p50/p99/max µs")
	}
	b.WriteByte('\n')
	for _, n := range threads {
		fmt.Fprintf(&b, "%-8d", n)
		for _, im := range impls {
			r, ok := cell[key{im, n}]
			if !ok || r.Latency.Count == 0 {
				fmt.Fprintf(&b, " %24s", "-")
			} else {
				fmt.Fprintf(&b, " %24s", fmt.Sprintf("%.1f / %.1f / %.1f",
					float64(r.Latency.Quantile(0.50))/1e3,
					float64(r.Latency.Quantile(0.99))/1e3,
					float64(r.Latency.Max)/1e3))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// benchRecord is one (impl, threads) cell in the machine-readable output.
type benchRecord struct {
	Impl          string  `json:"impl"`
	Threads       int     `json:"threads"`
	Batch         int     `json:"batch"`
	TotalOps      int     `json:"total_ops"`
	Reps          int     `json:"reps"`
	NsPerOp       float64 `json:"ns_per_op"`
	StdevNsPerOp  float64 `json:"stdev_ns_per_op"`
	MinNsPerOp    float64 `json:"min_ns_per_op"`
	MaxNsPerOp    float64 `json:"max_ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	Throughput    float64 `json:"throughput_ops_per_sec"`
	AvgHelping    float64 `json:"avg_helping,omitempty"`
	AccessesPerOp float64 `json:"accesses_per_op,omitempty"`
	P50Ns         uint64  `json:"p50_ns,omitempty"`
	P99Ns         uint64  `json:"p99_ns,omitempty"`
	MaxNs         uint64  `json:"max_ns,omitempty"`
}

type benchFile struct {
	GeneratedUnix int64                    `json:"generated_unix"`
	GOMAXPROCS    int                      `json:"gomaxprocs"`
	Experiments   map[string][]benchRecord `json:"experiments"`
}

// BenchJSON renders a map of experiment name → results as the indented JSON
// document `make bench-json` writes to BENCH_psim.json, so the performance
// trajectory (ns/op with its spread over repetitions, allocs/op, helping
// degree) is tracked across commits.
func BenchJSON(experiments map[string][]Result) ([]byte, error) {
	f := benchFile{
		GeneratedUnix: time.Now().Unix(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Experiments:   make(map[string][]benchRecord, len(experiments)),
	}
	for name, results := range experiments {
		recs := make([]benchRecord, 0, len(results))
		for _, r := range results {
			batch := r.Batch
			if batch < 1 {
				batch = 1
			}
			rec := benchRecord{
				Impl:        r.Impl,
				Threads:     r.Threads,
				Batch:       batch,
				TotalOps:    r.TotalOps,
				Reps:        r.Reps,
				AllocsPerOp: r.AllocsPerOp,
				Throughput:  r.Throughput,
			}
			if r.TotalOps > 0 {
				perOp := 1e9 / float64(r.TotalOps)
				rec.NsPerOp = r.MeanSec * perOp
				rec.StdevNsPerOp = r.StdevSec * perOp
				rec.MinNsPerOp = r.MinSec * perOp
				rec.MaxNsPerOp = r.MaxSec * perOp
			}
			if !math.IsNaN(r.AvgHelping) {
				rec.AvgHelping = r.AvgHelping
			}
			if !math.IsNaN(r.AccessesPerOp) {
				rec.AccessesPerOp = r.AccessesPerOp
			}
			if r.Latency.Count > 0 {
				rec.P50Ns = r.Latency.Quantile(0.50)
				rec.P99Ns = r.Latency.Quantile(0.99)
				rec.MaxNs = r.Latency.Max
			}
			recs = append(recs, rec)
		}
		f.Experiments[name] = recs
	}
	return json.MarshalIndent(f, "", "  ")
}

// Speedups reports, for each baseline implementation, the maximum over
// thread counts of baseline-time / target-time — the ratios the paper quotes
// in §4 and §5.
func Speedups(results []Result, target string) string {
	impls, threads := axes(results)
	cell := index(results)

	var b strings.Builder
	fmt.Fprintf(&b, "max speedup of %s over each baseline (across thread counts):\n", target)
	for _, im := range impls {
		if im == target {
			continue
		}
		best, bestAt := 0.0, 0
		for _, n := range threads {
			t, okT := cell[key{target, n}]
			o, okO := cell[key{im, n}]
			if !okT || !okO || t.MeanSec == 0 {
				continue
			}
			if s := o.MeanSec / t.MeanSec; s > best {
				best, bestAt = s, n
			}
		}
		fmt.Fprintf(&b, "  vs %-16s %.2fx (at %d threads)\n", im, best, bestAt)
	}
	return b.String()
}

type key struct {
	impl    string
	threads int
}

func axes(results []Result) (impls []string, threads []int) {
	seenI := map[string]bool{}
	seenT := map[int]bool{}
	for _, r := range results {
		if !seenI[r.Impl] {
			seenI[r.Impl] = true
			impls = append(impls, r.Impl)
		}
		if !seenT[r.Threads] {
			seenT[r.Threads] = true
			threads = append(threads, r.Threads)
		}
	}
	sort.Ints(threads)
	return impls, threads
}

func index(results []Result) map[key]Result {
	m := make(map[key]Result, len(results))
	for _, r := range results {
		m[key{r.Impl, r.Threads}] = r
	}
	return m
}
