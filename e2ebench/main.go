// Command e2ebench is the repository's end-to-end benchmark. It starts
// simkvd or simingestd as a subprocess, drives it over loopback TCP from
// this one process, checks every response, and prints the metrics of one
// seeded workload. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it reports per-layer metrics, from a replay of the same op
// stream against each layer's Go API, the daemon's /metrics and CPU
// profile, and its gctrace output. The last line of output is one JSON
// object; the process exits non-zero if any response was wrong.
//
//	bash e2ebench/run.sh --workload kv-wire --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated op stream")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	bin := flag.String("bin", ".bench_build", "directory holding the simkvd and simingestd binaries")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1")
		os.Exit(2)
	}

	out := report{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range ws {
		r := &runner{w: w, seed: *seed, secs: float64(*seconds), bin: *bin, traced: *trace == 1, epoch: time.Now()}
		var err error
		if r.traced {
			err = r.runTraced()
		} else {
			err = r.runE2E()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Printf("# %s seed=%d trace=%d attempted=%d failed=%d fail_frac=%.3g\n",
			w.name, *seed, *trace, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
		for _, m := range r.metrics {
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf(" (n=%d)", m.n)
			}
			fmt.Printf("%s %s = %.6g %s%s\n", w.name, m.name, m.value, m.unit, n)
			key := m.name
			if len(ws) > 1 {
				key = w.name + "/" + m.name
			}
			out.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// metric is one reported value; n is the number of samples behind a
// statistic (0 for a plain measurement).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// runner runs one workload.
type runner struct {
	w      *workload
	seed   uint64
	secs   float64
	bin    string
	traced bool
	epoch  time.Time

	attempted, failed int
	metrics           []metric
}

func (r *runner) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n})
}

// part returns fraction f of the run's measured seconds.
func (r *runner) part(f float64) time.Duration {
	return time.Duration(f * r.secs * float64(time.Second))
}

func (r *runner) count(t tally) {
	r.attempted += t.attempted()
	r.failed += t.bad
}

// setupRuns is how many times an end-to-end run starts and preloads a
// daemon. The first daemon serves the measured phases; the others are
// spare ones started and stopped between rounds, so the set-ups sample the
// host at moments spread over the run. A set-up takes milliseconds, too
// short for its steal share to rank it, so setup_s is the median of the
// faster half: a CPU-stealing neighbour or a hiccup that slows a few
// set-ups does not move it.
const setupRuns = 11

// timedOpen starts and preloads a daemon and returns how long that took.
func (r *runner) timedOpen(gctrace bool) (*session, float64, error) {
	t0 := time.Now()
	s, err := r.open(gctrace)
	return s, time.Since(t0).Seconds(), err
}

// spareSetup times the start and preload of a second daemon beside the
// serving one, with the ingest consumer paused meanwhile, and stops it.
func (r *runner) spareSetup(s *session) (float64, error) {
	if s.cons != nil {
		s.cons.paused.Store(true)
		defer s.cons.paused.Store(false)
	}
	spare, secs, err := r.timedOpen(false)
	if err != nil {
		return 0, fmt.Errorf("spare set-up: %w", err)
	}
	spare.close()
	return secs, nil
}

// fastHalfMedian returns the median of the faster half of xs.
func fastHalfMedian(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return median(s[:(len(s)+1)/2])
}

// session is a started daemon with its load connections and, for ingest,
// the consumer connection.
type session struct {
	d    *daemon
	load []*client
	cons *consumer
}

func (s *session) close() {
	if s.cons != nil {
		s.cons.close()
	}
	for _, c := range s.load {
		c.close()
	}
	s.d.stop()
}

// maxLag is how far, in events, the closed loop lets the publisher run
// ahead of the consumer: half the 64 × 256 events simingestd's sealed ring
// holds, so flow control, not retention, paces a saturated publisher.
const maxLag = 8192

// open starts the daemon, connects, and preloads the key set: every own key
// of each connection at version 1, in bursts of 64 requests (8 for blobs).
func (r *runner) open(gctrace bool) (*session, error) {
	w := r.w
	d, err := startDaemon(r.bin, w, gctrace)
	if err != nil {
		return nil, err
	}
	s := &session{d: d}
	if w.daemon == "simingestd" {
		sent := &sentLog{}
		c, err := dial(d.addr, &pubStream{sent: sent}, w.burst)
		if err != nil {
			s.close()
			return nil, err
		}
		s.load = []*client{c}
		if s.cons, err = startConsumer(d.addr, sent, r.epoch); err != nil {
			s.close()
			return nil, err
		}
		c.gate = func() { s.cons.waitLag(maxLag) }
		return s, nil
	}
	for conn := range 2 {
		st := newKVStream(w, r.seed, conn)
		c, err := dial(d.addr, st, w.burst)
		if err != nil {
			s.close()
			return nil, err
		}
		s.load = append(s.load, c)
		c.c.SetDeadline(time.Now().Add(30 * time.Second))
		step := 64
		if w.blob > 0 {
			step = 8
		}
		for left := st.preloadCount(); left > 0; left -= c.burst {
			c.burst = min(step, left)
			ok, bad, err := c.roundTrip(r.epoch)
			r.attempted += ok + bad
			r.failed += bad
			if err != nil {
				s.close()
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		c.burst = w.burst
	}
	return s, nil
}

// ladder walks the max-rate ladder from the rung nearest the hi rate: up
// while a rung meets the latency limit, down while it does not. A rung
// passes when every response is correct and both the p99 latency and the
// generator's p90 lateness (one sample per burst, too few for a p99 on the
// short rungs of a 32-request burst) stay within the limit, so a backlog
// that grows over the rung fails it. It returns the highest passing rate, 0 if none
// passed.
func (r *runner) ladder(s *session) (float64, error) {
	w := r.w
	i := 0
	for i+1 < len(w.ladder) && w.ladder[i] < w.hiRate {
		i++
	}
	best, lowestFail := 0.0, -1.0
	for steps := 0; steps < 6 && i >= 0 && i < len(w.ladder); steps++ {
		rate := w.ladder[i]
		t, err := openLoop(s.load, rate, r.part(0.06), r.epoch)
		r.count(t)
		if err != nil {
			return 0, err
		}
		if err := s.settle(); err != nil {
			return 0, err
		}
		pass := t.bad == 0
		if pass {
			// A rung too short for either percentile fails.
			p99, err1 := quantilesAt(t.lat, 0.99)
			lag, err2 := quantilesAt(t.lag, 0.90)
			limit := float64(w.limit.Microseconds())
			pass = err1 == nil && err2 == nil && p99[0] <= limit && lag[0] <= limit
		}
		fmt.Fprintf(os.Stderr, "%s ladder %.0f ops/s pass=%v\n", w.name, rate, pass)
		if pass {
			best = max(best, rate)
			if lowestFail >= 0 {
				break
			}
			i++
		} else {
			if best > 0 {
				break
			}
			lowestFail = rate
			i--
		}
	}
	return best, nil
}

// settle waits for the consumer to catch up with everything published.
func (s *session) settle() error {
	if s.cons == nil {
		return nil
	}
	return s.cons.catchUp(5 * time.Second)
}

// rounds is how many times an end-to-end run repeats its capacity, lo and
// hi windows. Each wall-clock statistic is the median over the
// least-stolen of the rounds, so neither a host hiccup that spoils one
// window nor a neighbour that steals CPU for seconds moves the run's
// figure.
const rounds = 50

// runE2E measures the end-to-end metrics with tracing off.
func (r *runner) runE2E() error {
	w := r.w
	s, secs, err := r.timedOpen(false)
	if err != nil {
		return err
	}
	defer s.close()
	setups := []float64{secs}

	echoP50, echoCap, err := echoBaseline(w, len(s.load), r.part(0.1), r.epoch)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s host baseline: net.echo_p50_us=%.4g net.echo_capacity_ops_s=%.6g\n", w.name, echoP50, echoCap)

	if _, err := closedLoop(s.load, r.part(0.03), r.epoch, false); err != nil { // warm-up, not reported
		return err
	}
	round := r.part(0.85 / rounds)
	var capW, loW, hiW []measured
	pooled := map[string][]int64{} // every latency of the lo and hi windows
	for i := range rounds {
		if i%(rounds/(setupRuns-1)) == 0 {
			secs, err := r.spareSetup(s)
			if err != nil {
				return err
			}
			setups = append(setups, secs)
		}
		st := startSteal()
		c, err := closedLoop(s.load, round*25/100, r.epoch, false)
		stolen := st.share()
		if err = r.window(s, c, err); err != nil {
			return err
		}
		capW = append(capW, measured{v: c.rate(), steal: stolen, n: c.attempted()})

		for _, ph := range []struct {
			name string
			rate float64
			frac time.Duration
			ws   *[]measured
		}{{"lo", w.loRate, 35, &loW}, {"hi", w.hiRate, 40, &hiW}} {
			cpu0, err := s.d.cpuTicks()
			if err != nil {
				return err
			}
			st := startSteal()
			t, err := openLoop(s.load, ph.rate, round*ph.frac/100, r.epoch)
			stolen := st.share()
			cpu1, cerr := s.d.cpuTicks()
			if err = r.window(s, t, errors.Join(err, cerr)); err != nil {
				return err
			}
			p50, err := quantilesAt(t.lat, 0.50)
			if err != nil {
				return fmt.Errorf("%s latency: %w", ph.name, err)
			}
			*ph.ws = append(*ph.ws, measured{v: p50[0], steal: stolen, n: len(t.lat), ticks: cpu1 - cpu0})
			pooled[ph.name] = append(pooled[ph.name], t.lat...)
		}
	}
	slices.Sort(setups)
	fmt.Fprintf(os.Stderr, "%s set-up seconds, sorted: %.4g\n", w.name, setups)
	r.add("setup_s", "s", fastHalfMedian(setups), len(setups))
	capK, loK, hiK := leastStolen(capW), leastStolen(loW), leastStolen(hiW)
	fmt.Fprintf(os.Stderr, "%s steal: %.3f of CPU over all windows, %.3f over the %d/%d/%d capacity/lo/hi windows kept of %d each\n",
		w.name, meanSteal(slices.Concat(capW, loW, hiW)), meanSteal(slices.Concat(capK, loK, hiK)), len(capK), len(loK), len(hiK), rounds)
	v, n := medianOf(capK)
	r.add("capacity_ops_s", "ops/s", v, n)
	v, n = medianOf(loK)
	r.add("lo.p50_us", "us", v, n)
	v, n = medianOf(hiK)
	r.add("hi.p50_us", "us", v, n)
	// CPU time is charged to the daemon only while it runs, so steal does
	// not inflate it: every hi window counts.
	var ticks int64
	n = 0
	for _, k := range hiW {
		ticks += k.ticks
		n += k.n
	}
	r.add("cpu_us_per_op", "us", float64(ticks)*1e6/ticksPerSecond/float64(n), n)
	// Tails and memory are diagnostics here: host stalls and simingestd's
	// heap swings make them too unsteady to bound, so the traced run reports
	// them as per-layer metrics.
	for _, ph := range []string{"lo", "hi"} {
		q, err := quantilesAt(pooled[ph], 0.90, 0.99)
		if err != nil {
			return fmt.Errorf("%s latency: %w", ph, err)
		}
		fmt.Fprintf(os.Stderr, "%s %s.p90_us = %.6g us, %s.p99_us = %.6g us (pooled over %d windows, n=%d)\n",
			w.name, ph, q[0], ph, q[1], rounds, len(pooled[ph]))
	}
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s peak_rss_mb = %.4g MiB\n", w.name, rss)
	r.finishConsumer(s)
	return nil
}

// window books one measured window: its requests count as attempted, wrong
// ones as failed, and for ingest the consumer must catch up before the next.
func (r *runner) window(s *session, t tally, err error) error {
	r.count(t)
	if err != nil {
		return err
	}
	return s.settle()
}

// finishConsumer charges the consumer's findings to the run: wrong or
// duplicated events, events lost to retention, and events never delivered.
func (r *runner) finishConsumer(s *session) {
	if s.cons == nil {
		return
	}
	bad, skipped, undelivered, observed := s.cons.verdict()
	fmt.Fprintf(os.Stderr, "%s consumer: observed=%d skipped=%d undelivered=%d wrong=%d\n", r.w.name, observed, skipped, undelivered, bad)
	r.attempted += int(observed + skipped + undelivered)
	r.failed += bad + int(skipped+undelivered)
}

// perLayer lists every per-layer metric and its unit. A traced run reports
// all of them; a layer the workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"loadgen.lag_p99_us", "us"}, {"loadgen.cpu_frac", "frac"},
	{"net.self_us_per_op", "us"}, {"net.syscall_cpu_frac", "frac"},
	{"net.echo_p50_us", "us"}, {"net.echo_capacity_ops_s", "ops/s"},
	{"kvserver.serve_ns_per_op", "ns"}, {"kvserver.self_ns_per_op", "ns"},
	{"kvserver.allocs_per_op", "count"}, {"kvserver.cpu_frac", "frac"},
	{"simmap.put_ns", "ns"}, {"simmap.get_ns", "ns"},
	{"simmap.mset_ns_per_key", "ns"}, {"simmap.mget_ns_per_key", "ns"},
	{"simmap.allocs_per_put", "count"}, {"simmap.bytes_per_put", "B"}, {"simmap.cpu_frac", "frac"},
	{"core.helping", "ratio"}, {"core.cas_fail_per_op", "ratio"}, {"core.served_by_frac", "frac"},
	{"core.backoff_grow_per_kop", "count"}, {"core.op_p50_ns", "ns"}, {"core.op_p99_ns", "ns"},
	{"alloc.fresh_frac.map_state", "frac"}, {"alloc.fresh_frac.blob_state", "frac"},
	{"alloc.fresh_frac.blob_lsim_state", "frac"}, {"alloc.fresh_frac.blob_lsim_item", "frac"},
	{"alloc.fresh_frac.ingest_queue_node", "frac"}, {"alloc.fresh_frac.ingest_queue_enq_state", "frac"},
	{"alloc.fresh_frac.ingest_queue_deq_state", "frac"}, {"alloc.fresh_frac.ingest_spool_state", "frac"},
	{"alloc.starved_per_kop", "count"}, {"alloc.handoff_per_kop", "count"},
	{"ingest.append_batch_ns_per_event", "ns"}, {"ingest.drain_ns_per_event", "ns"},
	{"ingest.events_per_flush", "count"}, {"ingest.events_per_drain", "count"},
	{"queue.enq_batch_ns", "ns"}, {"queue.deq_batch_ns", "ns"},
	{"spool.append_batch_ns_per_event", "ns"}, {"spool.read_ns_per_event", "ns"},
	{"retention.pass_ns", "ns"},
	{"tiered.bput_ns", "ns"}, {"tiered.bget_ns", "ns"},
	{"lsim.items_written_per_op", "count"}, {"tiered.large_frac", "frac"},
	{"runtime.gc_cycles_per_kop", "count"}, {"runtime.gc_cpu_frac", "frac"}, {"runtime.heap_peak_mb", "MiB"},
	{"deliver.p50_us", "us"}, {"deliver.p99_us", "us"},
	{"trace.overhead_frac", "frac"},
	{"lo.p90_us", "us"}, {"lo.p99_us", "us"}, {"hi.p90_us", "us"}, {"hi.p99_us", "us"},
	{"max_rate_ops_s", "ops/s"}, {"peak_rss_mb", "MiB"},
}

// corePrefixes names the metric families of the constructions a workload
// runs through.
func corePrefixes(w *workload) []string {
	switch {
	case w.daemon == "simingestd":
		return []string{"ingest_queue_", "ingest_spool_"}
	case w.blob > 0:
		return []string{"blob_", "blob_lsim_"}
	}
	return []string{"map_"}
}

// runTraced measures the per-layer metrics.
func (r *runner) runTraced() error {
	w := r.w
	v := map[string]float64{}
	counts := map[string]int{} // sample count behind each percentile
	s, err := r.open(true)
	if err != nil {
		return err
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	echoP50, echoCap, err := echoBaseline(w, len(s.load), r.part(0.1), r.epoch)
	if err != nil {
		return err
	}
	v["net.echo_p50_us"], v["net.echo_capacity_ops_s"] = echoP50, echoCap

	plain, err := closedLoop(s.load, r.part(0.2), r.epoch, false)
	r.count(plain)
	if err != nil {
		return err
	}
	if err := s.settle(); err != nil {
		return err
	}

	// The traced phase: closed loop with a span per burst, the daemon's CPU
	// profile and gctrace, and /metrics scraped on both sides.
	profSecs := max(1, int(r.secs*0.25+0.5))
	m0, err := s.d.scrape()
	if err != nil {
		return err
	}
	t0 := time.Now()
	cpu0, err := s.d.cpuTicks()
	if err != nil {
		return err
	}
	type profResult struct {
		b   []byte
		err error
	}
	profCh := make(chan profResult, 1)
	go func() {
		b, err := s.d.get(fmt.Sprintf("/debug/pprof/profile?seconds=%d", profSecs))
		profCh <- profResult{b, err}
	}()
	traced, err := closedLoop(s.load, time.Duration(profSecs)*time.Second, r.epoch, true)
	r.count(traced)
	prof := <-profCh
	if err != nil {
		return err
	}
	if prof.err != nil {
		return fmt.Errorf("cpu profile: %w", prof.err)
	}
	cpu1, err := s.d.cpuTicks()
	if err != nil {
		return err
	}
	t1 := time.Now()
	m1, err := s.d.scrape()
	if err != nil {
		return err
	}
	if err := s.settle(); err != nil {
		return err
	}
	samples, err := parseProfile(prof.b)
	if err != nil {
		return err
	}
	shares := layerShares(samples)
	v["net.syscall_cpu_frac"] = shares["net"]
	v["kvserver.cpu_frac"] = shares["kvserver"]
	v["simmap.cpu_frac"] = shares["simmap"]
	fmt.Fprintf(os.Stderr, "%s daemon CPU by layer: %s\n", w.name, formatShares(shares))
	v["trace.overhead_frac"] = 1 - traced.rate()/plain.rate()

	reqs := float64(traced.attempted())
	delta := diffSnapshots(m0, m1)
	r.coreMetrics(v, delta, reqs)
	gcs := s.d.gcLines(t0, t1)
	gcCPU, heapPeak := gcStats(gcs)
	v["runtime.gc_cycles_per_kop"] = float64(len(gcs)) / reqs * 1e3
	v["runtime.gc_cpu_frac"] = gcCPU / 1e3 / (float64(cpu1-cpu0) / ticksPerSecond)
	v["runtime.heap_peak_mb"] = heapPeak

	// The open-loop phases: tail latency, generator health and, for ingest,
	// deliver latency at the hi rate.
	lo, err := openLoop(s.load, w.loRate, r.part(0.1), r.epoch)
	if err := r.window(s, lo, err); err != nil {
		return err
	}
	if s.cons != nil {
		s.cons.timing.Store(true)
	}
	gen0, hiStart := selfCPU(), time.Now()
	hi, err := openLoop(s.load, w.hiRate, r.part(0.15), r.epoch)
	genCPU, hiWall := selfCPU()-gen0, time.Since(hiStart)
	if err := r.window(s, hi, err); err != nil {
		return err
	}
	// quantiles books the percentiles of samples under the given names,
	// with their sample count.
	quantiles := func(what string, samples []int64, names []string, qs ...float64) error {
		q, err := quantilesAt(samples, qs...)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		for i, name := range names {
			v[name], counts[name] = q[i], len(samples)
		}
		return nil
	}
	for name, t := range map[string]tally{"lo": lo, "hi": hi} {
		if err := quantiles(name+" latency", t.lat, []string{name + ".p90_us", name + ".p99_us"}, 0.90, 0.99); err != nil {
			return err
		}
	}
	v["loadgen.cpu_frac"] = genCPU.Seconds() / hiWall.Seconds() / float64(runtime.GOMAXPROCS(0))
	if err := quantiles("generator lateness", hi.lag, []string{"loadgen.lag_p99_us"}, 0.99); err != nil {
		return err
	}
	if s.cons != nil {
		s.cons.timing.Store(false)
		if err := quantiles("deliver latency", s.cons.take(), []string{"deliver.p50_us", "deliver.p99_us"}, 0.50, 0.99); err != nil {
			return err
		}
	}
	if v["max_rate_ops_s"], err = r.ladder(s); err != nil {
		return err
	}
	if v["peak_rss_mb"], err = s.d.peakRSSMB(); err != nil {
		return err
	}
	r.finishConsumer(s)
	conns := len(s.load)
	s.close()
	s = nil

	// Replay the same seeded op stream against each layer's Go API.
	rec := &recorder{epoch: r.epoch}
	rec.spans = append(rec.spans, traced.spans...)
	var layers layerNs
	var bad int
	var servePerOp float64
	if w.daemon == "simingestd" {
		layers, bad = replayIngest(r.seed, 2048, rec)
		servePerOp = layers["ingest.append_batch_ns_per_event"]
		r.attempted += 2048 * 32
	} else {
		n := 20000
		if w.blob > 0 {
			n = 4000
		}
		layers, bad = replayKV(w, r.seed, n, rec)
		servePerOp = layers["kvserver.serve_ns_per_op"]
		r.attempted += 2 * n
	}
	r.failed += bad
	for k, x := range layers {
		v[k] = x
	}
	// Each connection's wall time per op, less the server's own work.
	v["net.self_us_per_op"] = plain.elapsed.Seconds()*float64(conns)/float64(plain.attempted())*1e6 - servePerOp/1e3

	path := filepath.Join(r.bin, "spans-"+w.name+".json")
	if err := writeSpans(path, rec.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", w.name, len(rec.spans), path)
	for _, m := range perLayer {
		r.add(m.name, m.unit, v[m.name], counts[m.name])
	}
	return nil
}

func formatShares(m map[string]float64) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&b, "%s=%.3f ", k, m[k])
	}
	return strings.TrimSpace(b.String())
}
