// Command simbench regenerates the paper's tables and figures on the local
// machine. Each experiment prints the rows/series the corresponding figure
// plots, plus the speedup ratios the paper quotes in prose.
//
// Usage:
//
//	simbench -experiment fig2        # Figure 2 left: Fetch&Multiply sweep
//	simbench -experiment fig2-batch  # batched ApplyBatch throughput (-batch 1,16)
//	simbench -experiment map-sharded # sharded map sweep (-shards 1,4)
//	simbench -experiment ingest      # ingest pipeline events/sec + p99 append latency (-ingest-batch 1,8,32)
//	simbench -experiment fig2help    # Figure 2 right: helping degree
//	simbench -experiment fig3stack   # Figure 3 left: stacks
//	simbench -experiment fig3queue   # Figure 3 right: queues
//	simbench -experiment table1      # Table 1: accesses per operation
//	simbench -experiment ablation-backoff
//	simbench -experiment ablation-publication
//	simbench -experiment ablation-act
//	simbench -experiment all
//
// -experiment also accepts a comma-separated list, and -json FILE writes
// machine-readable results (ns/op, allocs/op, helping degree) for whatever
// ran — `make bench-json` uses this to refresh BENCH_psim.json.
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
// -flight-sample N thins recording to one in N operations per thread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/obs/trace"
)

func main() {
	var (
		exp     = flag.String("experiment", "all", "which experiment to run (fig2, fig2-batch, fig2help, fig3stack, fig3queue, table1, lsim, largeobject-crossover, map, map-sharded, ingest, ablation-backoff, ablation-publication, ablation-act, all)")
		ops     = flag.Int("ops", 100_000, "total operations per run (paper: 1000000)")
		reps    = flag.Int("reps", 3, "repetitions per configuration (paper: 10)")
		threads = flag.String("threads", "1,2,4,8,16,32", "comma-separated thread counts")
		maxWork = flag.Int("maxwork", 512, "max dummy-loop iterations between operations (paper: 512)")
		csvOut  = flag.Bool("csv", false, "also print CSV series")
		withMCS = flag.Bool("mcs", false, "include the MCS lock in fig2 (paper footnote 2)")
		latency = flag.Bool("latency", false,
			"record per-op latency distributions (p50/p99/max columns); inflates mean times by ~2 clock reads per op")
		obsEvery = flag.Duration("obs-every", 0,
			"periodically dump a JSON metrics delta to stderr while experiments run (0 disables)")
		timelineDump = flag.String("timeline-dump", "",
			"scrape the harness into a telemetry timeline while experiments run and write the full history (timeline ResponseJSON) to this file")
		timelineEvery = flag.Duration("timeline-every", 250*time.Millisecond,
			"scrape interval for -timeline-dump")
		jsonOut = flag.String("json", "",
			"write machine-readable results (ns/op, allocs/op, helping) for the experiments run to this file")
		flightOut = flag.String("flight", "",
			"attach the flight recorder to Sim-family instances and write a Chrome trace_event JSON of the newest round events to this file")
		flightSample = flag.Int("flight-sample", 1,
			"with -flight, record one in N operations per thread (1 = every op)")
		batches = flag.String("batch", "1,16",
			"comma-separated batch sizes for fig2-batch (ops per ApplyBatch call; 1 = plain Apply)")
		ingestBatches = flag.String("ingest-batch", "1,8,32",
			"comma-separated producer batch sizes for the ingest experiment")
		shards = flag.String("shards", "1,4",
			"comma-separated shard counts for map-sharded (rounded up to powers of two)")
		vsizes = flag.String("vsize", "16,256,1024,4096",
			"comma-separated value sizes in bytes for largeobject-crossover")
	)
	flag.Parse()

	tc, err := parseThreads(*threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	bc, err := parseThreads(*batches)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench: -batch:", err)
		os.Exit(2)
	}
	shc, err := parseThreads(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench: -shards:", err)
		os.Exit(2)
	}
	ibc, err := parseThreads(*ingestBatches)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench: -ingest-batch:", err)
		os.Exit(2)
	}
	vsc, err := parseThreads(*vsizes)
	if err != nil {
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
	var flight *trace.Tracer
	if *flightOut != "" {
		maxN := 1
		for _, n := range tc {
			if n > maxN {
				maxN = n
			}
		}
		flight = trace.New(maxN, trace.WithSampleEvery(*flightSample))
		cfg.Tracer = flight
	}
	var tl *timeline.Timeline
	if *timelineDump != "" {
		// The timeline resolves its series at construction, so the harness
		// metrics must exist first: pre-register them at the sweep's max
		// width (the harness get-or-creates the same objects later).
		maxN := 1
		for _, n := range tc {
			if n > maxN {
				maxN = n
			}
		}
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
	run := func(name string) {
		switch name {
		case "fig2":
			collected[name] = runSweep(cfg, "Figure 2 (left): Fetch&Multiply, time for total ops",
				experiments.Fig2Makers(*withMCS), "P-Sim", *csvOut)
		case "fig2-batch":
			collected[name] = runSweep(cfg, fmt.Sprintf(
				"Figure 2 batch sweep: ApplyBatch op-vectors (batch sizes %v)", bc),
				experiments.Fig2BatchMakers(bc), "P-Sim b=1", *csvOut)
		case "map-sharded":
			b := bc[len(bc)-1]
			collected[name] = runSweep(cfg, fmt.Sprintf(
				"Sharded map sweep: shard counts %v, MSet batch %d", shc, b),
				experiments.ShardedMapMakers(shc, b), fmt.Sprintf("Sharded(%d) b=%d", shc[len(shc)-1], b), *csvOut)
		case "ingest":
			// The ingest acceptance gate reads p99 append latency, so this
			// experiment always records latency distributions.
			icfg := cfg
			icfg.Latency = true
			collected[name] = runSweep(icfg, fmt.Sprintf(
				"Ingest pipeline: append+drain through queue and spool (batch sizes %v)", ibc),
				experiments.IngestMakers(ibc), fmt.Sprintf("Ingest b=%d", ibc[len(ibc)-1]), *csvOut)
		case "fig2help":
			fmt.Println("== Figure 2 (right): average degree of helping ==")
			res := harness.Run(cfg, experiments.Fig2Makers(*withMCS))
			collected[name] = res
			fmt.Println(harness.HelpingTable(res))
		case "fig3stack":
			collected[name] = runSweep(cfg, "Figure 3 (left): stacks, time for total push+pop pairs",
				experiments.Fig3StackMakers(), "SimStack", *csvOut)
		case "fig3queue":
			collected[name] = runSweep(cfg, "Figure 3 (right): queues, time for total enq+deq pairs",
				experiments.Fig3QueueMakers(), "SimQueue", *csvOut)
		case "table1":
			fmt.Println("== Table 1: shared-memory accesses per operation ==")
			opsPer := *ops / 100
			if opsPer < 100 {
				opsPer = 100
			}
			rows := experiments.Table1Measure(cfg.Threads, opsPer)
			fmt.Println(experiments.Table1Render(rows))
		case "lsim":
			fmt.Println("== L-Sim vs P-Sim on large objects (the paper's deferred experiment) ==")
			fmt.Printf("   object sizes 16/256/4096 words, w=2 cells touched per op\n\n")
			small := cfg
			small.TotalOps = cfg.TotalOps / 10 // the s=4096 P-Sim rows are O(s) per op
			if small.TotalOps < 1000 {
				small.TotalOps = 1000
			}
			res := experiments.LargeObjectSweep(small, []int{16, 256, 4096})
			collected[name] = res
			fmt.Println(harness.Table(res))
			if *csvOut {
				fmt.Println(harness.CSV(res))
			}
		case "largeobject-crossover":
			fmt.Println("== Large-value crossover: P-Sim flat slab vs L-Sim items vs MultiPSim(4) ==")
			fmt.Printf("   %d keys, value sizes %v bytes, 16-payload pool, overwrite workload\n\n",
				64, vsc)
			// The v=4096 P-Sim rows memcpy a 256KB slab per round; scale the
			// op count down like the lsim experiment does.
			small := cfg
			small.TotalOps = cfg.TotalOps / 10
			if small.TotalOps < 1000 {
				small.TotalOps = 1000
			}
			res := experiments.LargeValueCrossoverSweep(small, vsc)
			collected[name] = res
			fmt.Println(harness.Table(res))
			for _, v := range vsc {
				fmt.Println(harness.Speedups(res, fmt.Sprintf("P-Sim flat(v=%d)", v)))
			}
			if *csvOut {
				fmt.Println(harness.CSV(res))
			}
		case "map":
			collected[name] = runSweep(cfg, "Striped map: multiple Sim instances vs one",
				experiments.MapContentionMakers(8), "Map(8-stripes)", *csvOut)
		case "ablation-backoff":
			collected[name] = runSweep(cfg, "Ablation: adaptive backoff vs none",
				experiments.AblationBackoffMakers(), "P-Sim(backoff)", *csvOut)
		case "ablation-publication":
			collected[name] = runSweep(cfg, "Ablation: GC state publication vs paper-exact pool/seqlock",
				experiments.AblationPublicationMakers(), "P-Sim(GC)", *csvOut)
		case "ablation-act":
			collected[name] = runSweep(cfg, "Ablation: dense vs padded Act bit-vector layout",
				experiments.AblationActLayoutMakers(), "Act-dense", *csvOut)
		default:
			fmt.Fprintf(os.Stderr, "simbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = []string{
			"fig2", "fig2-batch", "fig2help", "fig3stack", "fig3queue", "table1", "lsim",
			"largeobject-crossover", "map", "map-sharded", "ingest",
			"ablation-backoff", "ablation-publication", "ablation-act",
		}
	}
	for _, name := range names {
		run(strings.TrimSpace(name))
		if len(names) > 1 {
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

func runSweep(cfg harness.Config, title string, makers []harness.Maker, target string, csvOut bool) []harness.Result {
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("   total ops %d, reps %d, max inter-op work %d iters\n\n",
		cfg.TotalOps, cfg.Reps, cfg.MaxWork)
	res := harness.Run(cfg, makers)
	fmt.Println(harness.Table(res))
	if cfg.Latency || cfg.Registry != nil {
		fmt.Println("per-operation latency distribution:")
		fmt.Println(harness.LatencyTable(res))
	}
	fmt.Println(harness.Chart(res, 14))
	fmt.Println(harness.Speedups(res, target))
	if csvOut {
		fmt.Println(harness.CSV(res))
	}
	return res
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
