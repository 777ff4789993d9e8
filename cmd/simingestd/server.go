package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/retention"
	"repro/internal/spool"
)

// server is the ingest daemon: -shards independent Pipelines (each a
// SimQueue in front of a P-Sim spool with its own drain loop and retention
// runner), served over the same pipelined TCP shape as the KV server.
//
// Connection slot s publishes into partition s%shards under producer pid
// s/shards, so every process id keeps the construction's single-writer
// announce discipline. POLL and HWM read PSim.Read snapshots and need no
// process id at all — a consumer can never block a producer.
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

	ids    chan int
	ln     net.Listener
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	drainStop chan struct{}
	drainWG   sync.WaitGroup

	reg    *obs.Registry
	tracer *trace.Tracer

	cPub, cPoll, cHwm, cStats, cErr *obs.Counter
	pollSkip                        []*obs.Counter // per partition: events lost to retention before a POLL arrived
	gConns                          *obs.Gauge
}

// serverConfig sizes a server.
type serverConfig struct {
	clients    int
	shards     int
	batch      int
	spool      spool.Config
	policy     retention.Policy
	retainTick time.Duration
	flight     int // flight-recorder capacity; 0 disables
	flightSamp int
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
		ids:       make(chan int, cfg.clients),
		conns:     map[net.Conn]struct{}{},
		drainStop: make(chan struct{}),
		reg:       obs.NewRegistry(),
	}
	s.cPub = s.reg.Counter("ingest_pub_total", cfg.clients)
	s.cPoll = s.reg.Counter("ingest_poll_total", cfg.clients)
	s.cHwm = s.reg.Counter("ingest_hwm_total", cfg.clients)
	s.cStats = s.reg.Counter("ingest_stats_total", cfg.clients)
	s.cErr = s.reg.Counter("ingest_err_total", cfg.clients)
	s.gConns = s.reg.Gauge("ingest_connections")
	s.pollSkip = make([]*obs.Counter, cfg.shards)
	for i := range s.pollSkip {
		s.pollSkip[i] = s.reg.Counter(
			obs.Labeled("ingest_poll_skipped_total", "partition", strconv.Itoa(i)), cfg.clients)
	}
	if cfg.flight > 0 {
		opts := []trace.Option{trace.WithCapacity(cfg.flight)}
		if cfg.flightSamp > 1 {
			opts = append(opts, trace.WithSampleEvery(cfg.flightSamp))
		}
		s.tracer = trace.New(perPart+2, opts...)
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
	for i := 0; i < cfg.clients; i++ {
		s.ids <- i
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
	const chunk = 128
	for {
		n := p.Drain(s.drainID, chunk)
		if n > 0 {
			continue
		}
		select {
		case <-s.drainStop:
			for p.Drain(s.drainID, chunk) > 0 {
			}
			return
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// Registry returns the daemon's metrics registry for HTTP export.
func (s *server) Registry() *obs.Registry { return s.reg }

// Tracer returns the flight recorder (nil unless enabled).
func (s *server) Tracer() *trace.Tracer { return s.tracer }

// Listen starts accepting connections and returns the bound address.
func (s *server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		slot := <-s.ids
		s.wg.Add(1)
		s.gConns.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.gConns.Add(-1)
			defer func() { s.ids <- slot }()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(slot, conn)
		}()
	}
}

func (s *server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the listener, closes in-flight connections, stops retention
// and drain loops (after a final queue sweep), and waits for everything.
func (s *server) Close() error {
	s.mu.Lock()
	ln := s.ln
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
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
// pid slot/shards. The loop is the kvserver's pipelined shape — block for
// one request, drain already-queued complete lines up to the batch depth,
// execute PUB runs as one AppendBatch, respond in order, flush once.
func (s *server) serveConn(slot int, conn net.Conn) {
	part := slot % len(s.parts)
	pid := slot / len(s.parts)
	labels := pprof.Labels("pid", strconv.Itoa(pid), "object", "ingest"+strconv.Itoa(part))
	pprof.Do(context.Background(), labels, func(context.Context) {
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		ex := &executor{s: s, p: s.parts[part], slot: slot, pid: pid, w: w}
		lines := make([]string, 0, s.batch)
		for {
			line, err := r.ReadString('\n')
			if line == "" && err != nil {
				return
			}
			lines = append(lines[:0], line)
			for len(lines) < s.batch && bufferedLine(r) {
				line, err = r.ReadString('\n')
				if line == "" {
					break
				}
				lines = append(lines, line)
			}
			quit := ex.run(lines)
			if w.Flush() != nil || quit || err != nil {
				return
			}
		}
	})
}

// bufferedLine reports whether r holds a complete line that can be read
// without touching the connection.
func bufferedLine(r *bufio.Reader) bool {
	n := r.Buffered()
	if n == 0 {
		return false
	}
	b, _ := r.Peek(n)
	return bytes.IndexByte(b, '\n') >= 0
}

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
}

// run executes one batch of request lines; quit reports a QUIT.
func (ex *executor) run(lines []string) (quit bool) {
	for _, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if strings.EqualFold(fields[0], "PUB") && len(fields) == 2 {
			if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
				ex.payloads = append(ex.payloads, v)
				continue
			}
		}
		// Anything else is a run barrier handled one at a time.
		ex.flushPubs()
		if ex.handle(fields) {
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
	for _, q := range ex.seqs {
		fmt.Fprintf(ex.w, "OK %d\n", q)
	}
	ex.payloads = ex.payloads[:0]
}

// handle serves one non-PUB request; quit reports a QUIT.
func (ex *executor) handle(fields []string) (quit bool) {
	s := ex.s
	switch strings.ToUpper(fields[0]) {
	case "POLL":
		if len(fields) != 4 {
			s.cErr.Inc(ex.slot)
			fmt.Fprintln(ex.w, "ERR usage: POLL <part> <cursor> <max>")
			return false
		}
		part, err1 := strconv.Atoi(fields[1])
		cursor, err2 := strconv.ParseUint(fields[2], 10, 64)
		max, err3 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || err3 != nil || part < 0 || part >= len(s.parts) || max < 1 {
			s.cErr.Inc(ex.slot)
			fmt.Fprintln(ex.w, "ERR POLL arguments out of range")
			return false
		}
		s.cPoll.Inc(ex.slot)
		v := s.parts[part].View()
		evs, next, skipped := v.Read(cursor, max, ex.evs[:0])
		ex.evs = evs
		if skipped > 0 {
			s.pollSkip[part].Add(ex.slot, skipped)
		}
		off := next - uint64(len(evs))
		for i, ev := range evs {
			fmt.Fprintf(ex.w, "EVT %d %d %d %d\n", off+uint64(i), ev.Producer, ev.Seq, ev.Payload)
		}
		fmt.Fprintf(ex.w, "END %d %d\n", next, skipped)
	case "HWM":
		if len(fields) != 2 {
			s.cErr.Inc(ex.slot)
			fmt.Fprintln(ex.w, "ERR usage: HWM <part>")
			return false
		}
		part, err := strconv.Atoi(fields[1])
		if err != nil || part < 0 || part >= len(s.parts) {
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
				i, v.LowWater(), v.End(), v.SealedTotal(), v.ExpiredTotal(),
				s.pollSkip[i].Total(), partPasses)
		}
		fmt.Fprintf(ex.w, "STATS appended=%d drained=%d low=%d end=%d passes=%d\n",
			appended, drained, low, end, passes)
	case "QUIT":
		fmt.Fprintln(ex.w, "BYE")
		return true
	default:
		s.cErr.Inc(ex.slot)
		fmt.Fprintln(ex.w, "ERR unknown command "+strings.ToUpper(fields[0]))
	}
	return false
}
