// Package kvserver is a small TCP key-value server built on the wait-free
// striped map — the kind of downstream application the universal
// construction exists for. Every mutation is wait-free: a slow or stalled
// client connection can never hold a lock that blocks other clients'
// operations (there are no locks), and reads are single atomic loads.
//
// Protocol (one request per line, space-separated, values base-10 uint64):
//
//	PUT <key> <value>   -> OK <previous>|OK NIL
//	GET <key>           -> VAL <value>|NIL
//	DEL <key>           -> OK <previous>|OK NIL
//	LEN                 -> LEN <count>
//	STATS               -> STATS ops=<n> helping=<avg> cas_fail=<n> served_by=<n>
//	QUIT                -> BYE (closes the connection)
//
// Malformed requests get "ERR <reason>" and the connection stays open.
//
// Large values (WithLargeValues): the server additionally carries a tiered
// byte-value store (simmap.Tiered) with its own command family — values are
// single whitespace-free byte tokens, stored verbatim:
//
//	BPUT <key> <value>  -> OK NEW|OK SET   (prev-less by design; see
//	                       internal/simmap/tiered.go)
//	BGET <key>          -> VAL <value>|NIL
//	BDEL <key>          -> OK|OK NIL
//
// Values of at least the configured threshold bytes are served by L-Sim
// item records (one O(1) item write per overwrite); smaller ones ride the
// P-Sim striped map inline. STATS gains per-tier routing counters and the
// L-Sim engine's totals, so a client can see which engine served its
// traffic.
//
// Pipelining (WithPipeline): clients may send many newline-separated
// requests without waiting for responses. The server reads up to the
// configured depth of ALREADY-QUEUED complete lines per wakeup, executes
// consecutive runs of the same command as ONE batched map operation
// (simmap MSet/MGet/MDelete — one combining round per touched shard
// instead of one per key), and writes the responses back strictly in
// request order. Responses are byte-identical to the unpipelined protocol,
// so pipelining is purely a client-side throughput knob.
//
// Sharding (WithShards): the store becomes a simmap.Sharded of independent
// per-shard maps, so heavy multi-client write loads scale past a single
// combiner.
//
// Every server carries an obs.Registry (see internal/obs): the striped map's
// Sim recorders (map_* metrics: op latency, combining degree, CAS outcomes)
// plus per-command counters (kv_put_total, …) and a connection gauge
// (kv_connections). Export it over HTTP with obs.Handler(srv.Registry()) —
// cmd/simkvd's -metrics-addr does exactly that.
package kvserver

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

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/simmap"
)

// Store is the map surface the server runs on; both simmap.Map (striped)
// and simmap.Sharded (sharded-and-striped) satisfy it.
type Store interface {
	Put(id int, k string, v uint64) (prev uint64, existed bool)
	Delete(id int, k string) (prev uint64, existed bool)
	Get(k string) (uint64, bool)
	MSet(id int, keys []string, vals []uint64) (prevs []uint64, existed []bool)
	MDelete(id int, keys []string) (prevs []uint64, existed []bool)
	MGet(id int, keys []string) (vals []uint64, ok []bool)
	Len() int
	Stats() core.Stats
}

// Server is a key-value server instance. Up to MaxClients connections are
// served concurrently; each holds one of the map's process ids while
// connected.
type Server struct {
	store    Store
	m        *simmap.Map[string, uint64]     // non-nil in unsharded mode
	sh       *simmap.Sharded[string, uint64] // non-nil in sharded mode
	blob     *simmap.Tiered[string]          // non-nil with WithLargeValues
	pipeline int                             // batch depth; <=1 is line-at-a-time
	ids      chan int                        // free-list of process ids
	ln       net.Listener
	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{} // in-flight connections, closed by Close
	wg       sync.WaitGroup

	reg    *obs.Registry
	tracer *trace.Tracer // nil without WithFlightRecorder
	// per-command counters, indexed by client slot (single writer per slot:
	// a slot serves one connection at a time).
	cPut, cGet, cDel, cLen, cStats, cErr *obs.Counter
	cBPut, cBGet, cBDel                  *obs.Counter // nil without WithLargeValues
	gConns                               *obs.Gauge
}

// Option configures a Server.
type Option func(*serverCfg)

type serverCfg struct {
	shards       int
	pipeline     int
	largeVals    bool
	threshold    int
	flight       int // flight-recorder ring capacity; <= 0 disables
	flightSample int
}

// WithShards partitions the store into k independent shards (rounded up to
// a power of two; <=1 keeps the single striped map). Each shard gets its
// own labeled metric series (map_*_total{shard="<i>"}).
func WithShards(k int) Option { return func(c *serverCfg) { c.shards = k } }

// WithPipeline enables pipelined request handling with the given batch
// depth: up to depth queued requests are read per wakeup and consecutive
// same-command runs execute as one batched map operation. Depth <=1
// keeps the line-at-a-time loop.
func WithPipeline(depth int) Option { return func(c *serverCfg) { c.pipeline = depth } }

// WithLargeValues enables the tiered byte-value store and its BPUT/BGET/BDEL
// commands. Values of at least threshold bytes are held in L-Sim item
// records; threshold <= 0 selects simmap.DefaultLargeThreshold.
func WithLargeValues(threshold int) Option {
	return func(c *serverCfg) { c.largeVals, c.threshold = true, threshold }
}

// WithFlightRecorder attaches a wait-free flight recorder to the store: one
// event ring per client slot, capacity events each (<= 0 keeps the recorder
// off), recording one in sampleEvery operations (min 1). Tracer returns it
// for snapshotting (cmd/simkvd's /debug/flight endpoint).
func WithFlightRecorder(capacity, sampleEvery int) Option {
	return func(c *serverCfg) { c.flight, c.flightSample = capacity, sampleEvery }
}

// New returns a server allowing maxClients concurrent connections, with the
// given stripe count for the underlying map (0 selects maxClients; in
// sharded mode the count applies per shard).
func New(maxClients, stripes int, opts ...Option) *Server {
	if maxClients < 1 {
		maxClients = 1
	}
	if stripes <= 0 {
		stripes = maxClients
	}
	var cfg serverCfg
	for _, o := range opts {
		o(&cfg)
	}
	reg := obs.NewRegistry()
	s := &Server{
		pipeline: cfg.pipeline,
		ids:      make(chan int, maxClients),
		conns:    map[net.Conn]struct{}{},
		reg:      reg,
		cPut:     reg.Counter("kv_put_total", maxClients),
		cGet:     reg.Counter("kv_get_total", maxClients),
		cDel:     reg.Counter("kv_del_total", maxClients),
		cLen:     reg.Counter("kv_len_total", maxClients),
		cStats:   reg.Counter("kv_stats_total", maxClients),
		cErr:     reg.Counter("kv_err_total", maxClients),
		gConns:   reg.Gauge("kv_connections"),
	}
	if cfg.flight > 0 {
		opts := []trace.Option{trace.WithCapacity(cfg.flight)}
		if cfg.flightSample > 1 {
			opts = append(opts, trace.WithSampleEvery(cfg.flightSample))
		}
		s.tracer = trace.New(maxClients, opts...)
	}
	// Record every operation's latency: map mutations sit behind network
	// round-trips here, so the default distribution sampling would only thin
	// out an already low-rate signal. Shards, stripes and the blob store all
	// share the tracer: a multi-key call touches shards one after another,
	// so per-pid rings keep a single writer, and one interleaved stream is
	// the right shape for /debug/flight.
	if cfg.shards > 1 {
		s.sh = simmap.NewSharded[string, uint64](maxClients, cfg.shards, stripes)
		s.store = s.sh
		for _, rec := range s.sh.Attach(reg, "map", s.tracer) {
			rec.SetSampleEvery(1)
		}
	} else {
		s.m = simmap.New[string, uint64](maxClients, stripes)
		s.store = s.m
		rec := obs.NewSimRecorder(reg, "map", maxClients)
		rec.SetSampleEvery(1)
		s.m.Attach(reg, "map", rec, s.tracer)
	}
	if cfg.largeVals {
		s.blob = simmap.NewTiered[string](maxClients, stripes, cfg.threshold)
		rec := obs.NewSimRecorder(reg, "blob", maxClients)
		rec.SetSampleEvery(1)
		s.blob.Attach(reg, "blob", rec, s.tracer)
		s.cBPut = reg.Counter("kv_bput_total", maxClients)
		s.cBGet = reg.Counter("kv_bget_total", maxClients)
		s.cBDel = reg.Counter("kv_bdel_total", maxClients)
	}
	for i := 0; i < maxClients; i++ {
		s.ids <- i
	}
	return s
}

// Registry returns the server's metrics registry, for HTTP export.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer returns the flight recorder, or nil without WithFlightRecorder.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serve loops run in background goroutines until
// Close.
func (s *Server) Listen(addr string) (string, error) {
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

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Track before blocking on a free slot: Close closes tracked
		// connections, which both unblocks their ServeConn loops and recycles
		// their ids, so this receive cannot deadlock a shutdown.
		if !s.track(conn) {
			conn.Close() // racing with Close: refuse
			continue
		}
		id := <-s.ids // waits if all client slots are busy
		s.wg.Add(1)
		s.gConns.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.gConns.Add(-1)
			defer func() { s.ids <- id }()
			defer s.untrack(conn)
			defer conn.Close()
			s.ServeConn(id, conn)
		}()
	}
}

// track registers an in-flight connection; false if the server is closed.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the listener, closes every in-flight connection (so a slow or
// idle client cannot stall shutdown or leak its serve goroutine), and waits
// for all serve loops to drain.
func (s *Server) Close() error {
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
	return err
}

// ServeConn handles one client connection with map process id. Exposed so
// tests (and in-process embedders) can drive the protocol over net.Pipe.
//
// The whole connection runs under pprof labels ("pid" = the map process id,
// "object" = "simmap"), so CPU profiles and runtime traces captured through
// cmd/simkvd's /debug endpoints attribute combiner time to the announcing
// slot. Labeling once per connection keeps the per-operation path free of
// the context plumbing and allocation pprof.Do would otherwise add.
func (s *Server) ServeConn(id int, conn net.Conn) {
	labels := pprof.Labels("pid", strconv.Itoa(id), "object", "simmap")
	pprof.Do(context.Background(), labels, func(context.Context) {
		if s.pipeline > 1 {
			s.servePipelined(id, conn)
			return
		}
		sc := bufio.NewScanner(conn)
		w := bufio.NewWriter(conn)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			resp, quit := s.handle(id, line)
			fmt.Fprintln(w, resp)
			if err := w.Flush(); err != nil {
				return
			}
			if quit {
				return
			}
		}
	})
}

// servePipelined is the ServeConn loop in pipeline mode: block for one
// request, then drain up to pipeline-1 further COMPLETE lines the client
// already queued (never blocking mid-batch — a lone request is still served
// immediately), execute the batch, flush all responses at once.
func (s *Server) servePipelined(id int, conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	ex := newExecutor(s, id, w)
	lines := make([]string, 0, s.pipeline)
	for {
		line, err := r.ReadString('\n')
		if line == "" && err != nil {
			return
		}
		lines = append(lines[:0], line)
		for len(lines) < s.pipeline && bufferedLine(r) {
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

// executor accumulates consecutive same-command requests of a pipelined
// batch and executes each run as one multi-key map operation. Its slices
// are reused across batches, so a steady pipelined connection allocates
// only what the responses themselves need.
type executor struct {
	s    *Server
	id   int
	w    *bufio.Writer
	kind byte // pending run: 'P', 'G', 'D', or 0
	keys []string
	vals []uint64
}

func newExecutor(s *Server, id int, w *bufio.Writer) *executor {
	return &executor{s: s, id: id, w: w}
}

// run executes one batch of request lines, writing responses in request
// order; quit reports a QUIT (remaining queued lines are dropped, matching
// the unpipelined loop which stops reading after QUIT).
func (ex *executor) run(lines []string) (quit bool) {
	for _, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch strings.ToUpper(fields[0]) {
		case "PUT":
			if len(fields) == 3 {
				if v, err := strconv.ParseUint(fields[2], 10, 64); err == nil {
					ex.push('P', fields[1], v)
					continue
				}
			}
		case "GET":
			if len(fields) == 2 {
				ex.push('G', fields[1], 0)
				continue
			}
		case "DEL":
			if len(fields) == 2 {
				ex.push('D', fields[1], 0)
				continue
			}
		}
		// Anything else — blob commands, LEN, STATS, QUIT, malformed — is a
		// run barrier served by the single-request handler. (Blob traffic is
		// unbatched: a large-tier overwrite is already one O(1) item round,
		// so there is no per-key batching win to chase.)
		ex.flush()
		resp, q := ex.s.handle(ex.id, line)
		fmt.Fprintln(ex.w, resp)
		if q {
			return true
		}
	}
	ex.flush()
	return false
}

// push appends one keyed request to the pending run, flushing first when
// the command kind changes (responses must stay in request order).
func (ex *executor) push(kind byte, key string, val uint64) {
	if ex.kind != kind {
		ex.flush()
		ex.kind = kind
	}
	ex.keys = append(ex.keys, key)
	if kind == 'P' {
		ex.vals = append(ex.vals, val)
	}
}

// flush executes the pending run as one batched store call and writes its
// responses.
func (ex *executor) flush() {
	if len(ex.keys) == 0 {
		ex.kind = 0
		return
	}
	s, id, m := ex.s, ex.id, uint64(len(ex.keys))
	switch ex.kind {
	case 'P':
		s.cPut.Add(id, m)
		prevs, existed := s.store.MSet(id, ex.keys, ex.vals)
		for i := range prevs {
			if existed[i] {
				fmt.Fprintf(ex.w, "OK %d\n", prevs[i])
			} else {
				fmt.Fprintln(ex.w, "OK NIL")
			}
		}
	case 'G':
		s.cGet.Add(id, m)
		vals, ok := s.store.MGet(id, ex.keys)
		for i := range vals {
			if ok[i] {
				fmt.Fprintf(ex.w, "VAL %d\n", vals[i])
			} else {
				fmt.Fprintln(ex.w, "NIL")
			}
		}
	case 'D':
		s.cDel.Add(id, m)
		prevs, existed := s.store.MDelete(id, ex.keys)
		for i := range prevs {
			if existed[i] {
				fmt.Fprintf(ex.w, "OK %d\n", prevs[i])
			} else {
				fmt.Fprintln(ex.w, "OK NIL")
			}
		}
	}
	ex.keys = ex.keys[:0]
	ex.vals = ex.vals[:0]
	ex.kind = 0
}

// handle executes one request line and returns the response line.
func (s *Server) handle(id int, line string) (resp string, quit bool) {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	switch cmd {
	case "PUT":
		if len(fields) != 3 {
			s.cErr.Inc(id)
			return "ERR usage: PUT <key> <value>", false
		}
		v, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			s.cErr.Inc(id)
			return "ERR value must be a uint64", false
		}
		s.cPut.Inc(id)
		prev, existed := s.store.Put(id, fields[1], v)
		if !existed {
			return "OK NIL", false
		}
		return fmt.Sprintf("OK %d", prev), false
	case "GET":
		if len(fields) != 2 {
			s.cErr.Inc(id)
			return "ERR usage: GET <key>", false
		}
		s.cGet.Inc(id)
		v, ok := s.store.Get(fields[1])
		if !ok {
			return "NIL", false
		}
		return fmt.Sprintf("VAL %d", v), false
	case "DEL":
		if len(fields) != 2 {
			s.cErr.Inc(id)
			return "ERR usage: DEL <key>", false
		}
		s.cDel.Inc(id)
		prev, existed := s.store.Delete(id, fields[1])
		if !existed {
			return "OK NIL", false
		}
		return fmt.Sprintf("OK %d", prev), false
	case "BPUT":
		if s.blob == nil {
			s.cErr.Inc(id)
			return "ERR large-value tier disabled (enable with WithLargeValues / -large-threshold)", false
		}
		if len(fields) != 3 {
			s.cErr.Inc(id)
			return "ERR usage: BPUT <key> <value>", false
		}
		s.cBPut.Inc(id)
		if s.blob.Put(id, fields[1], []byte(fields[2])) {
			return "OK SET", false
		}
		return "OK NEW", false
	case "BGET":
		if s.blob == nil {
			s.cErr.Inc(id)
			return "ERR large-value tier disabled (enable with WithLargeValues / -large-threshold)", false
		}
		if len(fields) != 2 {
			s.cErr.Inc(id)
			return "ERR usage: BGET <key>", false
		}
		s.cBGet.Inc(id)
		v, ok := s.blob.Get(fields[1])
		if !ok {
			return "NIL", false
		}
		return "VAL " + string(v), false
	case "BDEL":
		if s.blob == nil {
			s.cErr.Inc(id)
			return "ERR large-value tier disabled (enable with WithLargeValues / -large-threshold)", false
		}
		if len(fields) != 2 {
			s.cErr.Inc(id)
			return "ERR usage: BDEL <key>", false
		}
		s.cBDel.Inc(id)
		if s.blob.Delete(id, fields[1]) {
			return "OK", false
		}
		return "OK NIL", false
	case "LEN":
		s.cLen.Inc(id)
		return fmt.Sprintf("LEN %d", s.store.Len()), false
	case "STATS":
		s.cStats.Inc(id)
		st := s.store.Stats()
		resp := fmt.Sprintf("STATS ops=%d helping=%.2f cas_fail=%d served_by=%d",
			st.Ops, st.AvgHelping, st.CASFailures, st.ServedByOther)
		if s.blob != nil {
			// The tier split makes the engine routing observable: blob_small
			// writes were served inline by the P-Sim stripes, blob_large by
			// L-Sim item records (lsim_ops announced rounds, lsim_items
			// committed item write-backs).
			bs := s.blob.Stats()
			resp += fmt.Sprintf(" blob_small=%d blob_large=%d lsim_ops=%d lsim_items=%d threshold=%d",
				bs.SmallOps, bs.LargeOps, bs.Large.Ops, bs.ItemsHeld, s.blob.Threshold())
		}
		return resp, false
	case "QUIT":
		return "BYE", true
	}
	s.cErr.Inc(id)
	return "ERR unknown command " + cmd, false
}

// Map exposes the underlying map for embedding scenarios and tests; nil
// when the server was built with WithShards (use Store or Sharded then).
func (s *Server) Map() *simmap.Map[string, uint64] { return s.m }

// Sharded exposes the underlying sharded map; nil unless the server was
// built with WithShards.
func (s *Server) Sharded() *simmap.Sharded[string, uint64] { return s.sh }

// Store exposes whichever store the server runs on.
func (s *Server) Store() Store { return s.store }

// Tiered exposes the large-value store; nil unless the server was built
// with WithLargeValues.
func (s *Server) Tiered() *simmap.Tiered[string] { return s.blob }
