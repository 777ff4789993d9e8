// Command simingestd serves the wait-free event-ingest pipeline over TCP:
// producers append batched events through the SimQueue into P-Sim spool
// partitions, retention expires old segments as single linearizable
// op-vectors, and consumers poll cursor snapshots that never block writers.
//
//	simingestd -addr 127.0.0.1:7080 -clients 64 -shards 4 -batch 32 \
//	           -seg 256 -retain-events 65536 -metrics-addr 127.0.0.1:9091
//
// Talk to it with netcat:
//
//	$ printf 'PUB 7\nPUB 8\nPOLL 0 0 10\nHWM 0\nQUIT\n' | nc 127.0.0.1 7080
//	OK 1
//	OK 2
//	EVT 0 0 1 7
//	EVT 1 0 2 8
//	END 2 0
//	HWM 0 2
//	BYE
//
// Consumers hold their own cursors (POLL is stateless server-side): POLL
// returns events from offset max(cursor, low-watermark) and the next cursor
// to resume from, with events lost to retention surfaced as a counted
// `skipped` — never silent disorder.
//
// With -metrics-addr set, /metrics exports the wait-free observability
// plane (per-partition queue and spool combining metrics, stage counters,
// command counters, the connection gauge) and /debug carries pprof, the
// runtime-trace capture, and — with -flight — the flight-recorder snapshot
// of partition 0 (process ids repeat across partitions, so one partition
// owns the recorder). -watchdog BUDGET arms the progress watchdog on the
// same partition. /debug/timeline serves the telemetry timeline (-timeline,
// on by default at 1s): windowed per-series history of every *_ops_total
// family, including the per-partition ingest_spool{partition="i"} series —
// watch it live with cmd/simstat. -slo RULES arms SLO rules on it
// (throughput floors, p99 ceilings, CAS-failure and stall-rate ceilings),
// escalated to stderr once per breach episode like watchdog stalls.
//
// -smoke N switches the binary into a self-driving smoke test: it boots the
// daemon on a loopback port, publishes N events from several pipelined
// producer connections, polls every partition to the end, asserts cursor
// monotonicity and the retention high-watermark, prints a summary, and
// exits non-zero on any violation — CI's end-to-end gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/lineserver"
	obstrace "repro/internal/obs/trace"
	"repro/internal/retention"
	"repro/internal/spool"
)

// daemon is a running simingestd: the ingest server plus its operations
// surface (metrics listener, timeline, progress watchdog).
type daemon struct {
	ops  *lineserver.Daemon
	srv  *server
	addr string
}

// start boots the ingest server on addr and, when metricsAddr is non-empty,
// the /metrics + /debug HTTP surface.
func start(addr, metricsAddr string, cfg serverConfig, watchdogBudget int) (*daemon, error) {
	if watchdogBudget > 0 && cfg.flight == 0 {
		cfg.flight = obstrace.DefaultCapacity // watchdog reads the tracer's progress counters
	}
	srv := newServer(cfg)
	ops, err := lineserver.Start(srv, addr, lineserver.Ops{Name: "simingestd", MetricsAddr: metricsAddr,
		Timeline: cfg.timeline, SLO: cfg.slo, Watchdog: watchdogBudget})
	if err != nil {
		return nil, err
	}
	return &daemon{ops: ops, srv: srv, addr: ops.Addr}, nil
}

// metricsAddr returns the bound metrics address, or "" if metrics are off.
func (d *daemon) metricsAddr() string { return d.ops.MetricsAddr() }

// close shuts down both listeners and waits for the serve loops to drain.
func (d *daemon) close() error { return d.ops.Close() }

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7080", "listen address")
		clients     = flag.Int("clients", 64, "max concurrent client connections (producer slots)")
		shards      = flag.Int("shards", 1, "independent ingest partitions (each its own queue+spool+drainer)")
		batch       = flag.Int("batch", 32, "pipelined PUB batch depth: queued PUBs submitted as one AppendBatch vector")
		segEvents   = flag.Int("seg", 256, "spool segment size in events (sealed segments are immutable)")
		bucket      = flag.Duration("bucket", 0, "seal segments on time-bucket boundaries (0 disables time bucketing)")
		maxSegments = flag.Int("ring", 64, "hard ring bound: sealed segments kept per partition before forced expiry")
		retainAge   = flag.Duration("retain-age", 0, "retention window: expire events older than this (0 disables)")
		retainSegs  = flag.Int("retain-segs", 0, "retention: keep at most this many sealed segments (0 disables)")
		retainEvts  = flag.Int("retain-events", 0, "retention: keep at most this many events per partition (0 disables)")
		retainEvery = flag.Duration("retain-every", 50*time.Millisecond, "retention pass interval")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug on this address (empty disables)")
		flight      = flag.Int("flight", 0,
			"flight-recorder events per process id on partition 0 (rounded up to a power of two; 0 disables)")
		flightSample = flag.Int("flight-sample", 1,
			"with -flight, record one in N operations per process id (1 = every op)")
		watchdog = flag.Int("watchdog", 0,
			"report process ids whose announced op hasn't committed within N system-wide rounds (0 disables; implies -flight)")
		smoke = flag.Int("smoke", 0,
			"self-driving smoke mode: publish N events over loopback TCP, verify cursors and retention, exit (0 = serve)")
		timelineEvery = flag.Duration("timeline", time.Second,
			"telemetry-timeline scrape interval; samples are queryable at /debug/timeline (0 disables)")
		slo = flag.String("slo", "",
			"SLO rules over the timeline, e.g. 'ops>=10000,p99<=2ms,casfail<=0.5,stalls<=3@1m' (requires -timeline)")
	)
	flag.Parse()

	cfg := serverConfig{
		clients: *clients,
		shards:  *shards,
		batch:   *batch,
		spool: spool.Config{
			SegEvents:   *segEvents,
			BucketNs:    bucket.Nanoseconds(),
			MaxSegments: *maxSegments,
		},
		policy: retention.Policy{
			MaxAge:      *retainAge,
			MaxSegments: *retainSegs,
			MaxEvents:   *retainEvts,
		},
		retainTick: *retainEvery,
		flight:     *flight,
		flightSamp: *flightSample,
		timeline:   *timelineEvery,
		slo:        *slo,
	}

	if *smoke > 0 {
		if err := runSmoke(*smoke, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "simingestd: smoke:", err)
			os.Exit(1)
		}
		return
	}

	d, err := start(*addr, *metricsAddr, cfg, *watchdog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simingestd:", err)
		os.Exit(1)
	}
	fmt.Printf("simingestd listening on %s (%d client slots, %d partition(s), batch %d, seg %d)\n",
		d.addr, *clients, *shards, *batch, *segEvents)
	d.ops.Run()
}
