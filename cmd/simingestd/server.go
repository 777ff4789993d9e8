package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/lineserver"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/retention"
	"repro/internal/spool"
)

// server is the ingest daemon: -shards independent Pipelines (each a
// SimQueue in front of a P-Sim spool with its own drain loop and retention
// runner), served by internal/lineserver like the KV server.
//
// Connection slot s publishes into partition s%shards under producer pid
// s/shards, so every process id keeps the construction's single-writer
// announce discipline. POLL copies events straight out of the live spool
// (spool.Spool.Read, under PSim.ReadFunc) and HWM reads a PSim.Read
// snapshot; neither needs a process id — a consumer can never block a
// producer.
//
// Protocol (one request per line; responses in request order):
//
//	PUB <payload>              -> OK <seq>       (per-producer sequence stamp)
//	POLL <part> <cursor> <max> -> EVT <off> <producer> <seq> <payload> ...
//	                              END <next> <skipped>
//	HWM <part>                 -> HWM <low> <end>
//	STATS                      -> PART <i> low=… end=… sealed=… expired=… skipped=… passes=…
//	                              (one line per partition: spool watermarks,
//	                              seal/expiry totals, POLL reads that lost
//	                              events to retention, retention passes)
//	                              STATS appended=… drained=… low=… end=… passes=…
//	QUIT                       -> BYE
//
// A connection beyond -clients is answered "ERR busy" and closed; a line
// over 64 KiB is answered "ERR line too long" and the connection stays
// open. Both refusals are counted in ingest_refused_total{reason=...}.
//
// Pipelining: consecutive queued PUB lines execute as ONE AppendBatch
// vector (one EnqueueBatch announce per run instead of one per event);
// responses are byte-identical to the one-at-a-time protocol.
type server struct {
	parts   []*ingest.Pipeline
	runners []*retention.Runner[spool.Event] // nil entries when the policy is empty
	perPart int                              // producer slots per partition
	drainID int
	retID   int
	batch   int // max queued PUB lines executed as one AppendBatch

	lines *lineserver.Server

	drainStop chan struct{}
	drainWG   sync.WaitGroup

	reg    *obs.Registry
	tracer *trace.Tracer

	cPub, cPoll, cHwm, cStats, cErr *obs.Counter
	pollSkip                        []*obs.Counter // per partition: events lost to retention before a POLL arrived
}

// serverConfig sizes a server.
type serverConfig struct {
	clients    int
	shards     int
	batch      int
	spool      spool.Config
	policy     retention.Policy
	retainTick time.Duration
	flight     int           // flight-recorder capacity; 0 disables
	timeline   time.Duration // telemetry-timeline scrape interval; 0 disables
	slo        string        // SLO rule spec evaluated over the timeline
}

func newServer(cfg serverConfig) *server {
	if cfg.clients < 1 {
		cfg.clients = 1
	}
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	if cfg.shards > cfg.clients {
		cfg.shards = cfg.clients
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	if cfg.retainTick <= 0 {
		cfg.retainTick = 50 * time.Millisecond
	}
	perPart := (cfg.clients + cfg.shards - 1) / cfg.shards
	s := &server{
		parts:     make([]*ingest.Pipeline, cfg.shards),
		runners:   make([]*retention.Runner[spool.Event], cfg.shards),
		perPart:   perPart,
		drainID:   perPart,
		retID:     perPart + 1,
		batch:     cfg.batch,
		drainStop: make(chan struct{}),
		reg:       obs.NewRegistry(),
	}
	s.lines = lineserver.New(s.reg, "ingest", cfg.clients, s.serveConn)
	s.cPub = s.reg.Counter("ingest_pub_total", cfg.clients)
	s.cPoll = s.reg.Counter("ingest_poll_total", cfg.clients)
	s.cHwm = s.reg.Counter("ingest_hwm_total", cfg.clients)
	s.cStats = s.reg.Counter("ingest_stats_total", cfg.clients)
	s.cErr = s.reg.Counter("ingest_err_total", cfg.clients)
	s.pollSkip = make([]*obs.Counter, cfg.shards)
	for i := range s.pollSkip {
		s.pollSkip[i] = s.reg.Counter(
			obs.Labeled("ingest_poll_skipped_total", "partition", strconv.Itoa(i)), cfg.clients)
	}
	if cfg.flight > 0 {
		s.tracer = trace.New(perPart+2, trace.WithCapacity(cfg.flight))
	}
	for i := range s.parts {
		p := ingest.New(perPart+2, ingest.Config{Batch: cfg.batch, Spool: cfg.spool})
		// One partition on the flight recorder: process ids repeat across
		// partitions, and each per-pid ring must keep a single writer.
		var tr *trace.Tracer
		if i == 0 {
			tr = s.tracer
		}
		p.Attach(s.reg, obs.Labeled("ingest", "partition", strconv.Itoa(i)), tr)
		s.parts[i] = p
		if cfg.policy.MaxAge > 0 || cfg.policy.MaxSegments > 0 || cfg.policy.MaxEvents > 0 {
			r := retention.NewRunner(p.Spool(), s.retID, cfg.policy)
			r.Start(cfg.retainTick)
			s.runners[i] = r
		}
	}
	for i := range s.parts {
		s.drainWG.Add(1)
		go s.drainLoop(s.parts[i])
	}
	return s
}

// drainLoop is partition p's dedicated drainer: it owns process id drainID
// and moves queue batches into the spool until shutdown, with a final sweep
// so no accepted event is stranded in the queue.
func (s *server) drainLoop(p *ingest.Pipeline) {
	defer s.drainWG.Done()
	const chunk, idle = 128, 200 * time.Microsecond
	tick := time.NewTimer(idle) // one timer for every idle pass
	defer tick.Stop()
	for {
		n := p.Drain(s.drainID, chunk)
		if n > 0 {
			continue
		}
		tick.Reset(idle)
		select {
		case <-s.drainStop:
			for p.Drain(s.drainID, chunk) > 0 {
			}
			return
		case <-tick.C:
		}
	}
}

// Registry returns the daemon's metrics registry for HTTP export.
func (s *server) Registry() *obs.Registry { return s.reg }

// Tracer returns the flight recorder (nil unless enabled).
func (s *server) Tracer() *trace.Tracer { return s.tracer }

// Listen starts accepting connections and returns the bound address.
func (s *server) Listen(addr string) (string, error) { return s.lines.Listen(addr) }

// Close stops the listener, closes in-flight connections, stops retention
// and drain loops (after a final queue sweep), and waits for everything.
func (s *server) Close() error {
	err := s.lines.Close()
	for _, r := range s.runners {
		if r != nil {
			r.Stop()
		}
	}
	close(s.drainStop)
	s.drainWG.Wait()
	return err
}

// serveConn handles one connection on slot: partition slot%shards, producer
// pid slot/shards. Each batch of up to -batch queued lines runs its PUB
// runs as one AppendBatch and responds in order; the line server flushes
// the replies once per read.
func (s *server) serveConn(slot int, conn net.Conn) {
	part := slot % len(s.parts)
	pid := slot / len(s.parts)
	labels := pprof.Labels("pid", strconv.Itoa(pid), "object", "ingest"+strconv.Itoa(part))
	pprof.Do(context.Background(), labels, func(context.Context) {
		s.lines.Serve(slot, conn, s.batch, func(w *bufio.Writer) func([][]byte) bool {
			ex := &executor{s: s, p: s.parts[part], slot: slot, pid: pid, w: w}
			return ex.run
		})
	})
}

// commands are the protocol's command words, upper case.
var commands = []string{"PUB", "POLL", "HWM", "STATS", "QUIT"}

// executor accumulates a run of consecutive PUB payloads and submits each
// run as one AppendBatch vector. Slices are reused across batches.
type executor struct {
	s    *server
	p    *ingest.Pipeline
	slot int
	pid  int
	w    *bufio.Writer

	payloads []uint64
	seqs     []uint64
	evs      []ingest.Event
	out      []byte // response scratch: OK/EVT/END lines are appended here
}

// run executes one batch of request lines; quit reports a QUIT.
func (ex *executor) run(lines [][]byte) (quit bool) {
	var f [lineserver.MaxFields][]byte
	for _, line := range lines {
		n := lineserver.Fields(line, &f)
		if n == 0 {
			continue
		}
		cmd := lineserver.Command(f[0], commands)
		if cmd == "PUB" && n == 2 {
			if v, ok := lineserver.ParseUint(f[1]); ok {
				ex.payloads = append(ex.payloads, v)
				continue
			}
		}
		// Anything else is a run barrier handled one at a time.
		ex.flushPubs()
		if ex.handle(cmd, f[:n]) {
			return true
		}
	}
	ex.flushPubs()
	return false
}

// flushPubs submits the pending PUB run as one AppendBatch and writes the
// OK <seq> responses.
func (ex *executor) flushPubs() {
	if len(ex.payloads) == 0 {
		return
	}
	ex.s.cPub.Add(ex.slot, uint64(len(ex.payloads)))
	ex.seqs = ex.p.AppendBatch(ex.pid, ex.payloads, ex.seqs[:0])
	b := ex.out[:0]
	for _, q := range ex.seqs {
		b = append(b, "OK "...)
		b = strconv.AppendUint(b, q, 10)
		b = append(b, '\n')
	}
	ex.write(b)
	ex.payloads = ex.payloads[:0]
}

// write sends b and keeps it as the response scratch for the next lines.
func (ex *executor) write(b []byte) {
	ex.w.Write(b)
	ex.out = b[:0]
}

// handle serves one request other than a valid PUB — cmd is its command
// word, f its fields — and reports a QUIT.
func (ex *executor) handle(cmd string, f [][]byte) (quit bool) {
	s := ex.s
	switch cmd {
	case "POLL":
		if len(f) != 4 {
			s.cErr.Inc(ex.slot)
			fmt.Fprintln(ex.w, "ERR usage: POLL <part> <cursor> <max>")
			return false
		}
		part, ok1 := lineserver.ParseUint(f[1])
		cursor, ok2 := lineserver.ParseUint(f[2])
		max, ok3 := lineserver.ParseUint(f[3])
		if !ok1 || !ok2 || !ok3 || part >= uint64(len(s.parts)) || max < 1 || max > math.MaxInt {
			s.cErr.Inc(ex.slot)
			fmt.Fprintln(ex.w, "ERR POLL arguments out of range")
			return false
		}
		s.cPoll.Inc(ex.slot)
		evs, next, skipped := s.parts[part].Spool().Read(cursor, int(max), ex.evs[:0])
		ex.evs = evs
		if skipped > 0 {
			s.pollSkip[part].Add(ex.slot, skipped)
		}
		off := next - uint64(len(evs))
		b := ex.out[:0]
		for i, ev := range evs {
			b = append(b, "EVT "...)
			b = strconv.AppendUint(b, off+uint64(i), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(ev.Producer), 10)
			b = append(b, ' ')
			b = strconv.AppendUint(b, ev.Seq, 10)
			b = append(b, ' ')
			b = strconv.AppendUint(b, ev.Payload, 10)
			b = append(b, '\n')
		}
		b = append(b, "END "...)
		b = strconv.AppendUint(b, next, 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, skipped, 10)
		ex.write(append(b, '\n'))
	case "HWM":
		if len(f) != 2 {
			s.cErr.Inc(ex.slot)
			fmt.Fprintln(ex.w, "ERR usage: HWM <part>")
			return false
		}
		part, ok := lineserver.ParseUint(f[1])
		if !ok || part >= uint64(len(s.parts)) {
			s.cErr.Inc(ex.slot)
			fmt.Fprintln(ex.w, "ERR no such partition")
			return false
		}
		s.cHwm.Inc(ex.slot)
		v := s.parts[part].View()
		fmt.Fprintf(ex.w, "HWM %d %d\n", v.LowWater(), v.End())
	case "STATS":
		s.cStats.Inc(ex.slot)
		var appended, drained, low, end, passes uint64
		for i, p := range s.parts {
			st := p.Stats()
			appended += st.Appended
			drained += st.Drained
			v := p.View()
			low += v.LowWater()
			end += v.End()
			var partPasses uint64
			if r := s.runners[i]; r != nil {
				partPasses = r.Passes()
			}
			passes += partPasses
			fmt.Fprintf(ex.w, "PART %d low=%d end=%d sealed=%d expired=%d skipped=%d passes=%d\n",
				i, v.LowWater(), v.End(), v.SealedTotal(), v.LowWater(),
				s.pollSkip[i].Total(), partPasses)
		}
		fmt.Fprintf(ex.w, "STATS appended=%d drained=%d low=%d end=%d passes=%d\n",
			appended, drained, low, end, passes)
	case "QUIT":
		fmt.Fprintln(ex.w, "BYE")
		return true
	default:
		s.cErr.Inc(ex.slot)
		fmt.Fprintln(ex.w, "ERR unknown command "+cmd)
	}
	return false
}
