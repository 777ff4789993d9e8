// Command simkvd serves the wait-free key-value store over TCP — a
// demonstration that the Sim universal construction's data structures
// compose into a realistic service: no operation ever takes a lock, so one
// stalled client cannot block another.
//
//	simkvd -addr 127.0.0.1:7070 -clients 64 -stripes 16 -metrics-addr 127.0.0.1:9090
//
// Talk to it with netcat:
//
//	$ printf 'PUT a 1\nGET a\nLEN\nQUIT\n' | nc 127.0.0.1 7070
//	OK NIL
//	VAL 1
//	LEN 1
//	BYE
//
// With -metrics-addr set, the wait-free observability plane (internal/obs)
// is exported live at /metrics: Prometheus text format by default, JSON with
// ?format=json — op counts per command, publish CAS outcomes, the
// combining-degree histogram, p50/p99 operation latency, and the open
// connection gauge.
//
//	$ curl -s http://127.0.0.1:9090/metrics?format=json | head
//
// The same listener carries the debug surface:
//
//	/debug/pprof/*       standard pprof endpoints; samples are labeled with
//	                     pid (map process id) and object, so a CPU profile
//	                     attributes combiner time to the announcing slot
//	/debug/trace?sec=N   a runtime/trace capture of the next N seconds
//	/debug/flight        the flight-recorder snapshot (-flight enables it):
//	                     ?format=chrome (default; open in Perfetto) or
//	                     ?format=text, &last=N to trim to the newest N events
//	/debug/timeline      the telemetry timeline (-timeline enables it, on by
//	                     default at 1s): windowed per-series rate/latency
//	                     history ?window=60s&series=map,blob —
//	                     watch it live with cmd/simstat
//
// -watchdog BUDGET additionally starts a progress watchdog that reports (to
// stderr) any client slot whose announced map operation has not committed
// within BUDGET system-wide committed rounds — the wait-freedom bound made
// observable. It implies -flight. Watchdog stalls also land in the timeline
// as annotations, where -slo RULES (e.g. "ops>=10000,p99<=2ms,casfail<=0.25,
// stalls<=3@1m") evaluates SLO rules against every scrape and escalates
// breach/clear transitions through the same stderr path, once per episode.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/kvserver"
	"repro/internal/lineserver"
	obstrace "repro/internal/obs/trace"
)

// daemon is a running simkvd: the KV server plus its operations surface
// (metrics listener, timeline, progress watchdog). Split from main so tests
// boot and tear down real instances.
type daemon struct {
	ops  *lineserver.Daemon
	addr string
}

// options carries the observability knobs from flags to start.
type options struct {
	flight      int           // flight-recorder ring capacity; 0 disables
	watchdog    int           // stall budget in committed rounds; 0 disables
	pipeline    int           // pipelined protocol batch depth; <=1 disables
	largeThresh int           // BPUT/BGET/BDEL tier threshold in bytes; 0 disables the blob store
	timeline    time.Duration // telemetry-timeline scrape interval; 0 disables
	slo         string        // SLO rule spec evaluated over the timeline
}

// start boots the KV server on addr and, when metricsAddr is non-empty, the
// /metrics + /debug HTTP surface on metricsAddr.
func start(addr, metricsAddr string, clients, stripes int, opt options) (*daemon, error) {
	kvOpts := []kvserver.Option{kvserver.WithPipeline(opt.pipeline)}
	if opt.largeThresh > 0 {
		kvOpts = append(kvOpts, kvserver.WithLargeValues(opt.largeThresh))
	}
	if opt.watchdog > 0 && opt.flight == 0 {
		opt.flight = obstrace.DefaultCapacity // watchdog needs the tracer's progress counters
	}
	kvOpts = append(kvOpts, kvserver.WithFlightRecorder(opt.flight))
	srv := kvserver.New(clients, stripes, kvOpts...)
	ops, err := lineserver.Start(srv, addr, lineserver.Ops{Name: "simkvd", MetricsAddr: metricsAddr,
		Timeline: opt.timeline, SLO: opt.slo, Watchdog: opt.watchdog})
	if err != nil {
		return nil, err
	}
	return &daemon{ops: ops, addr: ops.Addr}, nil
}

// metricsAddr returns the bound metrics address, or "" if metrics are off.
func (d *daemon) metricsAddr() string { return d.ops.MetricsAddr() }

// close shuts down both listeners and waits for the serve loops to drain.
func (d *daemon) close() error { return d.ops.Close() }

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "listen address")
		clients     = flag.Int("clients", 64, "max concurrent client connections")
		stripes     = flag.Int("stripes", 16, "map stripes: independent Sim instances the keys are hashed over")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug on this address (empty disables)")
		flight      = flag.Int("flight", 0,
			"flight-recorder events per client slot (rounded up to a power of two; 0 disables); every operation is traced")
		watchdog = flag.Int("watchdog", 0,
			"report client slots whose announced op hasn't committed within N system-wide rounds (0 disables; implies -flight)")
		pipeline = flag.Int("pipeline", 1,
			"pipelined protocol batch depth: execute up to N queued requests per wakeup as batched map ops (1 = request-at-a-time)")
		largeThresh = flag.Int("large-threshold", 0,
			"enable the BPUT/BGET/BDEL byte-value store; values of at least N bytes are served by L-Sim item records instead of inline map entries (0 disables)")
		timelineEvery = flag.Duration("timeline", time.Second,
			"telemetry-timeline scrape interval; samples are queryable at /debug/timeline (0 disables)")
		slo = flag.String("slo", "",
			"SLO rules over the timeline, e.g. 'ops>=10000,p99<=2ms,casfail<=0.5,stalls<=3@1m' (requires -timeline)")
	)
	flag.Parse()

	d, err := start(*addr, *metricsAddr, *clients, *stripes,
		options{flight: *flight, watchdog: *watchdog,
			pipeline: *pipeline, largeThresh: *largeThresh,
			timeline: *timelineEvery, slo: *slo})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simkvd:", err)
		os.Exit(1)
	}
	fmt.Printf("simkvd listening on %s (%d client slots, %d stripes, pipeline %d)\n",
		d.addr, *clients, *stripes, *pipeline)
	if *largeThresh > 0 {
		fmt.Printf("simkvd large-value tier on: values >= %d bytes served by L-Sim items (BPUT/BGET/BDEL)\n",
			*largeThresh)
	}
	d.ops.Run()
}
