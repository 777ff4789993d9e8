// Command simbench is the one runner of the paper's experiments: every
// table and figure of the evaluation, the ablations of its design choices,
// and this repository's extensions. Each experiment prints the rows/series
// the corresponding figure plots, plus the speedup ratios the paper quotes
// in prose.
//
// Usage:
//
//	simbench -experiment NAME[,NAME...]   # or -experiment all, in this order:
//
//	fig2                   Figure 2: Fetch&Multiply time (left) and helping degree (right)
//	fig2-batch             batched ApplyBatch throughput (-batch 1,16)
//	fig3stack              Figure 3 (left): stacks
//	fig3queue              Figure 3 (right): queues
//	table1                 Table 1: shared-memory accesses per operation
//	lsim                   L-Sim vs P-Sim on large objects (the paper's deferred experiment)
//	largeobject-crossover  large-value crossover (-vsize 16,256,1024,4096)
//	map                    striped map: stripes 1, 8, 32; MSet batch = the largest -batch
//	ingest                 ingest pipeline events/sec + p99 append latency (-ingest-batch 1,8,32)
//	ablation-backoff       adaptive backoff vs none
//	ablation-publication   GC state publication vs paper-exact pool/seqlock, 1 and 8 words
//	ablation-queue         SimQueue's two instances vs one P-Sim queue
//
// -json FILE writes machine-readable results (ns/op with its spread over
// repetitions, allocs/op, helping degree) for whatever ran — `make
// bench-json` uses this to refresh BENCH_psim.json.
//
// Flags -ops, -reps, -threads and -maxwork rescale the runs; the paper's
// full-size configuration is -ops 1000000 -reps 10.
//
// -timeline-dump FILE scrapes the harness into a telemetry timeline
// (internal/obs/timeline) every -timeline-every while experiments run and
// writes the whole history — a "harness" series of ops/sec and latency
// percentiles per scrape tick — as timeline ResponseJSON, the same document
// the daemons serve at /debug/timeline.
//
// -flight FILE attaches the wait-free flight recorder to every Sim-family
// instance and writes a Chrome trace_event JSON of the newest
// combining-round events (one track per process id, round duration and
// degree of combining as args) — open it in chrome://tracing or Perfetto.
// The experiments attach no distribution recorder, so every operation is
// recorded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/obs/trace"
)

// axes are the per-experiment sweep lists parsed from -batch,
// -ingest-batch and -vsize.
type axes struct {
	batches, ingestBatches, vsizes []int
}

// experiment is one entry of simbench's experiment list. run returns the
// results and the rows whose speedups it reported.
type experiment struct {
	name, title string
	run         func(cfg harness.Config, ax axes) (res []harness.Result, targets []string)
}

// experimentTable is simbench's one list of experiments: -experiment
// dispatches on it, -experiment all runs it in order, and the flag's help
// text lists it.
var experimentTable = []experiment{
	{"fig2", "Figure 2: Fetch&Multiply, time for total ops (left) and helping degree (right)",
		func(cfg harness.Config, _ axes) ([]harness.Result, []string) {
			res, targets := runSweep(cfg, experiments.Fig2Makers(), "P-Sim")
			fmt.Println("average degree of helping (Figure 2 right):")
			fmt.Println(harness.HelpingTable(res))
			return res, targets
		}},
	{"fig2-batch", "Figure 2 batch sweep: ApplyBatch op-vectors (-batch)",
		func(cfg harness.Config, ax axes) ([]harness.Result, []string) {
			return runSweep(cfg, experiments.Fig2BatchMakers(ax.batches), "P-Sim b=1")
		}},
	{"fig3stack", "Figure 3 (left): stacks, time for total push+pop pairs",
		func(cfg harness.Config, _ axes) ([]harness.Result, []string) {
			return runSweep(cfg, experiments.Fig3StackMakers(), "SimStack")
		}},
	{"fig3queue", "Figure 3 (right): queues, time for total enq+deq pairs",
		func(cfg harness.Config, _ axes) ([]harness.Result, []string) {
			return runSweep(cfg, experiments.Fig3QueueMakers(), "SimQueue")
		}},
	{"table1", "Table 1: shared-memory accesses per operation",
		func(cfg harness.Config, _ axes) ([]harness.Result, []string) {
			res := harness.Run(smaller(cfg), experiments.Table1Makers())
			fmt.Println(experiments.Table1Render(res))
			return res, nil
		}},
	{"lsim", "L-Sim vs P-Sim on 16/256/4096-word objects, w=2 cells per op (the paper's deferred experiment)",
		func(cfg harness.Config, _ axes) ([]harness.Result, []string) {
			// The s=4096 P-Sim rows clone the whole object every round.
			return runSweep(smaller(cfg), experiments.LargeObjectMakers(16, 256, 4096))
		}},
	{"largeobject-crossover", "Large-value crossover: P-Sim flat slab vs L-Sim items vs MultiPSim(4), 64 keys (-vsize)",
		func(cfg harness.Config, ax axes) ([]harness.Result, []string) {
			// The v=4096 P-Sim rows memcpy a 256KB slab per round.
			var targets []string
			for _, v := range ax.vsizes {
				targets = append(targets, fmt.Sprintf("P-Sim flat(v=%d)", v))
			}
			return runSweep(smaller(cfg), experiments.LargeValueCrossoverMakers(ax.vsizes...), targets...)
		}},
	{"map", "Striped map: multiple Sim instances vs one, MSet batch = the largest -batch",
		func(cfg harness.Config, ax axes) ([]harness.Result, []string) {
			b := ax.batches[len(ax.batches)-1]
			target := fmt.Sprintf("Map(stripes=32) b=%d", b)
			return runSweep(cfg, experiments.MapMakers(b, 1, 8, 32), target)
		}},
	{"ingest", "Ingest pipeline: append+drain through queue and spool (-ingest-batch)",
		func(cfg harness.Config, ax axes) ([]harness.Result, []string) {
			// The ingest acceptance gate reads p99 append latency, so this
			// experiment always records latency distributions.
			cfg.Latency = true
			target := fmt.Sprintf("Ingest b=%d", ax.ingestBatches[len(ax.ingestBatches)-1])
			return runSweep(cfg, experiments.IngestMakers(ax.ingestBatches), target)
		}},
	{"ablation-backoff", "Ablation: adaptive backoff vs none",
		func(cfg harness.Config, _ axes) ([]harness.Result, []string) {
			return runSweep(cfg, experiments.AblationBackoffMakers(), "P-Sim(backoff)")
		}},
	{"ablation-publication", "Ablation: GC state publication vs paper-exact pool/seqlock, 1 and 8 words",
		func(cfg harness.Config, _ axes) ([]harness.Result, []string) {
			return runSweep(cfg, experiments.AblationPublicationMakers(), "P-Sim(GC)", "P-Sim(GC) s=8")
		}},
	{"ablation-queue", "Ablation: SimQueue's two Sim instances vs one P-Sim simulating the whole queue",
		func(cfg harness.Config, _ axes) ([]harness.Result, []string) {
			return runSweep(cfg, experiments.AblationQueueMakers(), "SimQueue")
		}},
}

// lookup returns the experiments named by a -experiment value.
func lookup(spec string) ([]experiment, error) {
	if spec == "all" {
		return experimentTable, nil
	}
	var out []experiment
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(experimentTable, func(e experiment) bool { return e.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		out = append(out, experimentTable[i])
	}
	return out, nil
}

func main() {
	var (
		exp     = flag.String("experiment", "all", "comma-separated experiments to run, or all: "+experimentNames())
		ops     = flag.Int("ops", 100_000, "total operations per run (paper: 1000000)")
		reps    = flag.Int("reps", 3, "repetitions per configuration (paper: 10)")
		threads = flag.String("threads", "1,2,4,8,16,32", "comma-separated thread counts")
		maxWork = flag.Int("maxwork", 512, "max dummy-loop iterations between operations (paper: 512)")
		latency = flag.Bool("latency", false,
			"record per-op latency distributions (p50/p99/max columns); inflates mean times by ~2 clock reads per op")
		obsEvery = flag.Duration("obs-every", 0,
			"periodically dump a JSON metrics delta to stderr while experiments run (0 disables)")
		timelineDump = flag.String("timeline-dump", "",
			"scrape the harness into a telemetry timeline while experiments run and write the full history (timeline ResponseJSON) to this file")
		timelineEvery = flag.Duration("timeline-every", 250*time.Millisecond,
			"scrape interval for -timeline-dump")
		jsonOut = flag.String("json", "",
			"write machine-readable results (ns/op and its spread, allocs/op, helping) for the experiments run to this file")
		flightOut = flag.String("flight", "",
			"attach the flight recorder to Sim-family instances and write a Chrome trace_event JSON of the newest round events to this file")
		batches = flag.String("batch", "1,16",
			"comma-separated batch sizes for fig2-batch (ops per ApplyBatch call; 1 = plain Apply); map runs the largest")
		ingestBatches = flag.String("ingest-batch", "1,8,32",
			"comma-separated producer batch sizes for the ingest experiment")
		vsizes = flag.String("vsize", "16,256,1024,4096",
			"comma-separated value sizes in bytes for largeobject-crossover")
	)
	flag.Parse()

	exps, err := lookup(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	tc, err := parseThreads(*threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	var ax axes
	if ax.batches, err = parseThreads(*batches); err != nil {
		fmt.Fprintln(os.Stderr, "simbench: -batch:", err)
		os.Exit(2)
	}
	if ax.ingestBatches, err = parseThreads(*ingestBatches); err != nil {
		fmt.Fprintln(os.Stderr, "simbench: -ingest-batch:", err)
		os.Exit(2)
	}
	if ax.vsizes, err = parseThreads(*vsizes); err != nil {
		fmt.Fprintln(os.Stderr, "simbench: -vsize:", err)
		os.Exit(2)
	}
	cfg := harness.Config{
		Threads:  tc,
		TotalOps: *ops,
		MaxWork:  *maxWork,
		Reps:     *reps,
		Seed:     1,
		Latency:  *latency,
	}
	// Runs of every width share the tracer and the registered harness
	// metrics, so both are sized to the sweep's widest run.
	maxN := slices.Max(tc)
	var flight *trace.Tracer
	if *flightOut != "" {
		flight = trace.New(maxN)
		cfg.Tracer = flight
	}
	var tl *timeline.Timeline
	if *timelineDump != "" {
		// The timeline resolves its series at construction, so the harness
		// metrics must exist first: pre-register them at the sweep's max
		// width (the harness get-or-creates the same objects later).
		reg := obs.NewRegistry()
		cfg.Registry = reg
		reg.Counter("harness_ops_total", maxN)
		reg.Histogram("harness_op_latency_ns", maxN)
		tl = timeline.New(reg, timeline.Config{Interval: *timelineEvery})
		tl.Start()
	}
	if *obsEvery > 0 {
		// Live observability: the harness records into a registered metric
		// and a dumper prints per-interval deltas without pausing the runs.
		reg := cfg.Registry
		if reg == nil {
			reg = obs.NewRegistry()
			cfg.Registry = reg
		}
		ticker := time.NewTicker(*obsEvery)
		defer ticker.Stop()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for {
				select {
				case <-ticker.C:
					fmt.Fprintf(os.Stderr, "# obs delta @ %s\n", time.Now().Format(time.RFC3339))
					_ = obs.WriteJSON(os.Stderr, reg.Delta())
				case <-stop:
					return
				}
			}
		}()
	}

	collected := map[string][]harness.Result{}
	for _, e := range exps {
		fmt.Printf("== %s ==\n", e.title)
		collected[e.name], _ = e.run(cfg, ax)
		if len(exps) > 1 {
			fmt.Println()
		}
	}

	if tl != nil {
		tl.Stop()
		tl.Scrape() // catch the tail of the last run
		doc := tl.Query(0, 0, nil)
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*timelineDump, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench: writing timeline:", err)
			os.Exit(1)
		}
		samples := 0
		for _, s := range doc.Series {
			samples += len(s)
		}
		fmt.Printf("wrote %s (%d series, %d samples at %s)\n",
			*timelineDump, len(doc.Series), samples, *timelineEvery)
	}

	if flight != nil {
		f, err := os.Create(*flightOut)
		if err == nil {
			err = trace.WriteChrome(f, flight.Snapshot())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench: writing flight trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d events; open in chrome://tracing or Perfetto)\n",
			*flightOut, len(flight.Snapshot()))
	}

	if *jsonOut != "" {
		data, err := harness.BenchJSON(collected)
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench: writing json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *jsonOut, len(collected))
	}
}

// runSweep runs makers under cfg and prints the timing table, the latency
// table when recorded, a chart, and the speedups of each target. It returns
// the results and the targets.
func runSweep(cfg harness.Config, makers []harness.Maker, targets ...string) ([]harness.Result, []string) {
	fmt.Printf("   total ops %d, reps %d, max inter-op work %d iters\n\n",
		cfg.TotalOps, cfg.Reps, cfg.MaxWork)
	res := harness.Run(cfg, makers)
	fmt.Println(harness.Table(res))
	if cfg.Latency || cfg.Registry != nil {
		fmt.Println("per-operation latency distribution:")
		fmt.Println(harness.LatencyTable(res))
	}
	fmt.Println(harness.Chart(res, 14))
	for _, target := range targets {
		fmt.Println(harness.Speedups(res, target))
	}
	return res, targets
}

// smaller scales cfg's op count down tenfold (to no fewer than 1000) for
// experiments whose rows cost far more per operation than Fetch&Multiply.
func smaller(cfg harness.Config) harness.Config {
	cfg.TotalOps /= 10
	if cfg.TotalOps < 1000 {
		cfg.TotalOps = 1000
	}
	return cfg
}

func experimentNames() string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
