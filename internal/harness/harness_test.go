package harness

import (
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

func TestMeanStdev(t *testing.T) {
	m, s := meanStdev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	if math.Abs(s-2.1380899352993) > 1e-9 { // sample stdev
		t.Fatalf("stdev = %v", s)
	}
}

func TestMeanStdevDegenerate(t *testing.T) {
	if m, s := meanStdev(nil); m != 0 || s != 0 {
		t.Fatalf("empty: %v %v", m, s)
	}
	if m, s := meanStdev([]float64{3}); m != 3 || s != 0 {
		t.Fatalf("singleton: %v %v", m, s)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if minOf(xs) != 1 || maxOf(xs) != 3 {
		t.Fatalf("min=%v max=%v", minOf(xs), maxOf(xs))
	}
}

// countingMaker builds an instance that counts its operations, so the test
// can verify the runner executes the configured volume.
func countingMaker(name string, total *atomic.Uint64) Maker {
	return func(n int) Instance {
		return Instance{
			Name: name,
			Op: func(id int, rng *workload.RNG) {
				total.Add(1)
			},
			Helping: func() float64 { return 2.5 },
		}
	}
}

func TestRunExecutesConfiguredVolume(t *testing.T) {
	var total atomic.Uint64
	cfg := Config{Threads: []int{1, 2}, TotalOps: 100, MaxWork: 0, Reps: 3, Seed: 1}
	res := Run(cfg, []Maker{countingMaker("x", &total)})
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	// 2 thread counts × 3 reps × 100 ops each (n divides 100 for both).
	if got := total.Load(); got != 600 {
		t.Fatalf("ops executed = %d, want 600", got)
	}
	for _, r := range res {
		if r.Impl != "x" || r.TotalOps != 100 || r.Reps != 3 {
			t.Fatalf("result meta wrong: %+v", r)
		}
		if r.MeanSec <= 0 || r.Throughput <= 0 {
			t.Fatalf("timing not recorded: %+v", r)
		}
		if r.AvgHelping != 2.5 {
			t.Fatalf("helping not captured: %+v", r)
		}
		if r.MinSec > r.MeanSec || r.MeanSec > r.MaxSec {
			t.Fatalf("min/mean/max inconsistent: %+v", r)
		}
	}
}

func TestLatencyRecording(t *testing.T) {
	var total atomic.Uint64
	cfg := Config{Threads: []int{2}, TotalOps: 100, MaxWork: 0, Reps: 2, Seed: 1, Latency: true}
	res := Run(cfg, []Maker{countingMaker("x", &total)})
	r := res[0]
	if r.Latency.Count != 200 { // 2 reps × 100 ops
		t.Fatalf("latency samples = %d, want 200", r.Latency.Count)
	}
	p50, p99 := r.Latency.Quantile(0.50), r.Latency.Quantile(0.99)
	if p50 > p99 || p99 > r.Latency.Max {
		t.Fatalf("quantiles out of order: p50=%d p99=%d max=%d", p50, p99, r.Latency.Max)
	}
	out := LatencyTable(res)
	if !strings.Contains(out, "threads") || !strings.Contains(out, "x p50/p99/max") {
		t.Fatalf("latency table malformed:\n%s", out)
	}
}

func TestLatencyViaRegistry(t *testing.T) {
	var total atomic.Uint64
	reg := obs.NewRegistry()
	cfg := Config{Threads: []int{1, 2}, TotalOps: 50, MaxWork: 0, Reps: 1, Seed: 1, Registry: reg}
	res := Run(cfg, []Maker{countingMaker("x", &total)})
	// The registered metric accumulates across runs; each Result carries its
	// own delta.
	snap := reg.Snapshot()
	if got := snap.Histograms["harness_op_latency_ns"].Count; got != 100 {
		t.Fatalf("registry histogram count = %d, want 100", got)
	}
	// Every logical operation also lands in the live ops counter, so the
	// telemetry timeline discovers a "harness" series.
	if got := snap.Counters["harness_ops_total"]; got != 100 {
		t.Fatalf("harness_ops_total = %d, want 100", got)
	}
	for _, r := range res {
		if r.Latency.Count != 50 {
			t.Fatalf("per-run delta = %d, want 50", r.Latency.Count)
		}
	}
}

func TestRunRoundsUpTinyOps(t *testing.T) {
	var total atomic.Uint64
	cfg := Config{Threads: []int{8}, TotalOps: 4, MaxWork: 0, Reps: 1, Seed: 1}
	Run(cfg, []Maker{countingMaker("x", &total)})
	if got := total.Load(); got != 8 { // 1 op per thread minimum
		t.Fatalf("ops executed = %d, want 8", got)
	}
}

func sampleResults() []Result {
	return []Result{
		{Impl: "A", Threads: 1, MeanSec: 0.010, Throughput: 1000, AvgHelping: 1.5},
		{Impl: "A", Threads: 2, MeanSec: 0.008, Throughput: 1250, AvgHelping: 2.5},
		{Impl: "B", Threads: 1, MeanSec: 0.020, Throughput: 500, AvgHelping: math.NaN()},
		{Impl: "B", Threads: 2, MeanSec: 0.024, Throughput: 417, AvgHelping: math.NaN()},
	}
}

func TestTableRendering(t *testing.T) {
	out := Table(sampleResults())
	for _, want := range []string{"threads", "A", "B", "10.00ms", "24.00ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestHelpingTableRendering(t *testing.T) {
	out := HelpingTable(sampleResults())
	if !strings.Contains(out, "2.50") {
		t.Fatalf("helping table missing value:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("helping table missing NaN placeholder:\n%s", out)
	}
}

func TestBenchJSON(t *testing.T) {
	var total atomic.Uint64
	cfg := Config{Threads: []int{2}, TotalOps: 100, MaxWork: 0, Reps: 2, Seed: 1, Latency: true}
	timed := Run(cfg, []Maker{countingMaker("x", &total)})
	spread := Result{Impl: "A", Threads: 1, TotalOps: 1000, Reps: 3,
		MeanSec: 0.010, StdevSec: 0.001, MinSec: 0.009, MaxSec: 0.012,
		AvgHelping: math.NaN(), AccessesPerOp: math.NaN()}
	data, err := BenchJSON(map[string][]Result{"timed": timed, "spread": {spread}})
	if err != nil {
		t.Fatalf("BenchJSON: %v", err)
	}
	var doc struct {
		Experiments map[string][]map[string]any `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output does not parse: %v\n%s", err, data)
	}
	rec := doc.Experiments["spread"][0]
	// Spread is the per-run seconds over the total ops, in ns; Batch 0
	// defaults to 1.
	for field, want := range map[string]float64{
		"ns_per_op": 10000, "stdev_ns_per_op": 1000, "min_ns_per_op": 9000, "max_ns_per_op": 12000, "batch": 1,
	} {
		if got, ok := rec[field].(float64); !ok || math.Abs(got-want) > 1e-6 {
			t.Fatalf("%s = %v, want %v", field, rec[field], want)
		}
	}
	// NaN helping/accesses and unrecorded latency are omitted, not emitted.
	for _, field := range []string{"avg_helping", "accesses_per_op", "p50_ns", "p99_ns", "max_ns"} {
		if _, ok := rec[field]; ok {
			t.Fatalf("%s present in %v", field, rec)
		}
	}
	rec = doc.Experiments["timed"][0]
	for _, field := range []string{"avg_helping", "p50_ns", "p99_ns", "max_ns", "stdev_ns_per_op"} {
		if _, ok := rec[field]; !ok {
			t.Fatalf("%s missing from %v", field, rec)
		}
	}
}

func TestSpeedups(t *testing.T) {
	out := Speedups(sampleResults(), "A")
	if !strings.Contains(out, "vs B") {
		t.Fatalf("speedups missing baseline:\n%s", out)
	}
	// Best ratio: at 2 threads, 0.024/0.008 = 3.00x.
	if !strings.Contains(out, "3.00x") {
		t.Fatalf("speedup value wrong:\n%s", out)
	}
	if strings.Contains(out, "vs A") {
		t.Fatal("speedups compared target against itself")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TotalOps <= 0 || cfg.Reps <= 0 || len(cfg.Threads) == 0 {
		t.Fatalf("bad default config: %+v", cfg)
	}
	if cfg.MaxWork != workload.DefaultMaxWork {
		t.Fatalf("MaxWork = %d", cfg.MaxWork)
	}
}

func TestChartRendering(t *testing.T) {
	out := Chart(sampleResults(), 10)
	for _, want := range []string{"legend:", "A", "B", "threads"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Fatalf("chart too short:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	if out := Chart(nil, 8); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart = %q", out)
	}
}

func TestChartHeightClamped(t *testing.T) {
	out := Chart(sampleResults(), 1) // clamped to a usable height
	if !strings.Contains(out, "legend:") {
		t.Fatal("clamped chart unusable")
	}
}
