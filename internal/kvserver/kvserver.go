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
// Connections are served by internal/lineserver, with one framing for
// every batch depth: a connection beyond MaxClients gets "ERR busy" and is
// closed, and a line over lineserver.MaxLine (64 KiB, its newline
// included) gets "ERR line too long" while the connection stays open.
// Both refusals are counted in kv_refused_total{reason=...}.
//
// Fields are separated by runs of white space as unicode.IsSpace defines
// it (the rule of strings.Fields): ASCII tab, newline, vertical tab, form
// feed, carriage return and space, plus the Unicode spaces such as U+0085,
// U+00A0 and U+3000. Invalid UTF-8 never separates. Command words match in
// any case. Each connection's reply writer holds lineserver.MaxLine (64
// KiB), the longest request line, and is flushed once per read: the reply
// to a lone request, or up to 64 KiB of the replies to every line one read
// delivered, leaves in a single Write. The writes are counted in
// kv_reply_writes_total.
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
// requests without waiting for responses. The server takes up to the
// configured depth of ALREADY-QUEUED complete lines per wakeup, executes
// consecutive runs of the same command as ONE batched map operation
// (simmap MSet/MGet/MDelete — one combining round per touched stripe
// instead of one per key), and writes the responses back strictly in
// request order. Responses are byte-identical to the unpipelined protocol,
// and leave in one Write per read at every depth, so the depth only groups
// execution.
//
// Every server carries an obs.Registry (see internal/obs): the striped map's
// Sim recorders (map_* metrics: op latency, combining degree, CAS outcomes)
// plus per-command counters (kv_put_total, …), the refusal counters and a
// connection gauge (kv_connections). Export it over HTTP with
// obs.Handler(srv.Registry()) — cmd/simkvd's -metrics-addr does exactly
// that.
package kvserver

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"strconv"

	"repro/internal/lineserver"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/simmap"
)

// Server is a key-value server instance. Up to MaxClients connections are
// served concurrently; each holds one of the map's process ids while
// connected. Listen and Close come from the embedded line server.
type Server struct {
	*lineserver.Server
	m        *simmap.Map[string, uint64]
	blob     *simmap.Tiered[string] // non-nil with WithLargeValues
	pipeline int                    // batch depth; <=1 is a batch of one

	reg    *obs.Registry
	tracer *trace.Tracer // nil without WithFlightRecorder
	// per-command counters, indexed by client slot (single writer per slot:
	// a slot serves one connection at a time).
	cPut, cGet, cDel, cLen, cStats, cErr *obs.Counter
	cBPut, cBGet, cBDel                  *obs.Counter // nil without WithLargeValues
}

// Option configures a Server.
type Option func(*serverCfg)

type serverCfg struct {
	pipeline     int
	largeVals    bool
	threshold    int
	flight       int // flight-recorder ring capacity; <= 0 disables
	flightSample int
}

// WithPipeline enables pipelined request handling with the given batch
// depth: up to depth queued requests are taken per wakeup and consecutive
// same-command runs execute as one batched map operation. Depth <=1
// serves each request as a batch of one.
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
// given stripe count for the underlying map (0 selects maxClients). Each
// stripe is an independent P-Sim instance, so the stripe count is the one
// knob that partitions the key space.
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
		reg:      reg,
		cPut:     reg.Counter("kv_put_total", maxClients),
		cGet:     reg.Counter("kv_get_total", maxClients),
		cDel:     reg.Counter("kv_del_total", maxClients),
		cLen:     reg.Counter("kv_len_total", maxClients),
		cStats:   reg.Counter("kv_stats_total", maxClients),
		cErr:     reg.Counter("kv_err_total", maxClients),
	}
	s.Server = lineserver.New(reg, "kv", maxClients, s.ServeConn)
	if cfg.flight > 0 {
		opts := []trace.Option{trace.WithCapacity(cfg.flight)}
		if cfg.flightSample > 1 {
			opts = append(opts, trace.WithSampleEvery(cfg.flightSample))
		}
		s.tracer = trace.New(maxClients, opts...)
	}
	// Record every operation's latency: map mutations sit behind network
	// round-trips here, so the default distribution sampling would only thin
	// out an already low-rate signal. Stripes and the blob store all share
	// the tracer: a multi-key call touches stripes one after another, so
	// per-pid rings keep a single writer, and one interleaved stream is the
	// right shape for /debug/flight.
	s.m = simmap.New[string, uint64](maxClients, stripes)
	rec := obs.NewSimRecorder(reg, "map", maxClients)
	rec.SetSampleEvery(1)
	s.m.Attach(reg, "map", rec, s.tracer)
	if cfg.largeVals {
		s.blob = simmap.NewTiered[string](maxClients, stripes, cfg.threshold)
		rec := obs.NewSimRecorder(reg, "blob", maxClients)
		rec.SetSampleEvery(1)
		s.blob.Attach(reg, "blob", rec, s.tracer)
		s.cBPut = reg.Counter("kv_bput_total", maxClients)
		s.cBGet = reg.Counter("kv_bget_total", maxClients)
		s.cBDel = reg.Counter("kv_bdel_total", maxClients)
	}
	return s
}

// Registry returns the server's metrics registry, for HTTP export.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer returns the flight recorder, or nil without WithFlightRecorder.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

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
		s.Serve(id, conn, s.pipeline, func(w *bufio.Writer) func([][]byte) bool {
			return newExecutor(s, id, w).run
		})
	})
}

// executor accumulates consecutive same-command requests of a batch and
// executes each run as one multi-key map operation. Its slices are reused
// across batches, so on a steady connection the codec allocates only the
// keys a PUT or DEL hands to the store.
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
// order; quit reports a QUIT (remaining queued lines are dropped: the
// connection stops reading after QUIT). GET keys view the batch's bytes,
// which stay put until run returns.
func (ex *executor) run(lines [][]byte) (quit bool) {
	var f [lineserver.MaxFields][]byte
	for _, line := range lines {
		n := lineserver.Fields(line, &f)
		if n == 0 {
			continue
		}
		cmd := lineserver.Command(f[0], commands)
		// A lone request skips the run: its single-key store call costs
		// less than grouping one key by stripe.
		if len(lines) > 1 && ex.batch(cmd, f[:n]) {
			continue
		}
		// Anything else — blob commands, LEN, STATS, QUIT, malformed — is a
		// run barrier served by the single-request handler. (Blob traffic is
		// unbatched: a large-tier overwrite is already one O(1) item round,
		// so there is no per-key batching win to chase.)
		ex.flush()
		if ex.s.handle(ex.id, ex.w, cmd, f[:n]) {
			return true
		}
	}
	ex.flush()
	return false
}

// batch appends a well-formed PUT, GET or DEL to the pending run and
// reports whether it did, flushing first when the command kind changes
// (responses must stay in request order).
func (ex *executor) batch(cmd string, f [][]byte) bool {
	var kind byte
	var key string
	var val uint64
	switch {
	case cmd == "PUT" && len(f) == 3:
		v, ok := lineserver.ParseUint(f[2])
		if !ok {
			return false
		}
		kind, key, val = 'P', string(f[1]), v
	case cmd == "GET" && len(f) == 2:
		kind, key = 'G', lineserver.LookupKey(f[1])
	case cmd == "DEL" && len(f) == 2:
		kind, key = 'D', string(f[1])
	default:
		return false
	}
	if ex.kind != kind {
		ex.flush()
		ex.kind = kind
	}
	ex.keys = append(ex.keys, key)
	if kind == 'P' {
		ex.vals = append(ex.vals, val)
	}
	return true
}

// flush executes the pending run as one batched store call and writes its
// responses.
func (ex *executor) flush() {
	if len(ex.keys) == 0 {
		ex.kind = 0
		return
	}
	s, id, w, m := ex.s, ex.id, ex.w, uint64(len(ex.keys))
	switch ex.kind {
	case 'P':
		s.cPut.Add(id, m)
		prevs, existed := s.m.MSet(id, ex.keys, ex.vals)
		writePrevs(w, prevs, existed)
	case 'G':
		s.cGet.Add(id, m)
		vals, ok := s.m.MGet(id, ex.keys)
		for i := range vals {
			writeGet(w, vals[i], ok[i])
		}
	case 'D':
		s.cDel.Add(id, m)
		prevs, existed := s.m.MDelete(id, ex.keys)
		writePrevs(w, prevs, existed)
	}
	ex.keys = ex.keys[:0]
	ex.vals = ex.vals[:0]
	ex.kind = 0
}

// writePrevs writes one PUT/DEL reply per previous binding.
func writePrevs(w *bufio.Writer, prevs []uint64, existed []bool) {
	for i := range prevs {
		writePrev(w, prevs[i], existed[i])
	}
}

// writePrev writes a PUT/DEL reply: "OK <previous>" or "OK NIL".
func writePrev(w *bufio.Writer, prev uint64, existed bool) {
	if existed {
		writeUint(w, "OK ", prev)
	} else {
		writeLine(w, "OK NIL")
	}
}

// writeGet writes a GET reply: "VAL <value>" or "NIL".
func writeGet(w *bufio.Writer, v uint64, ok bool) {
	if ok {
		writeUint(w, "VAL ", v)
	} else {
		writeLine(w, "NIL")
	}
}

const errBlobDisabled = "ERR large-value tier disabled (enable with WithLargeValues / -large-threshold)"

// handle executes one request — cmd is its command word as
// lineserver.Command folds it, f its fields as lineserver.Fields returns
// them — and writes the response line to w.
func (s *Server) handle(id int, w *bufio.Writer, cmd string, f [][]byte) (quit bool) {
	switch cmd {
	case "PUT":
		if len(f) != 3 {
			return s.fail(id, w, "ERR usage: PUT <key> <value>")
		}
		v, ok := lineserver.ParseUint(f[2])
		if !ok {
			return s.fail(id, w, "ERR value must be a uint64")
		}
		s.cPut.Inc(id)
		prev, existed := s.m.Put(id, string(f[1]), v)
		writePrev(w, prev, existed)
	case "GET":
		if len(f) != 2 {
			return s.fail(id, w, "ERR usage: GET <key>")
		}
		s.cGet.Inc(id)
		v, ok := s.m.Get(lineserver.LookupKey(f[1]))
		writeGet(w, v, ok)
	case "DEL":
		if len(f) != 2 {
			return s.fail(id, w, "ERR usage: DEL <key>")
		}
		s.cDel.Inc(id)
		prev, existed := s.m.Delete(id, string(f[1]))
		writePrev(w, prev, existed)
	case "BPUT":
		if s.blob == nil {
			return s.fail(id, w, errBlobDisabled)
		}
		if len(f) != 3 {
			return s.fail(id, w, "ERR usage: BPUT <key> <value>")
		}
		s.cBPut.Inc(id)
		// The value is passed straight from the read buffer: Put makes the
		// store's one owned copy.
		if s.blob.Put(id, string(f[1]), f[2]) {
			writeLine(w, "OK SET")
		} else {
			writeLine(w, "OK NEW")
		}
	case "BGET":
		if s.blob == nil {
			return s.fail(id, w, errBlobDisabled)
		}
		if len(f) != 2 {
			return s.fail(id, w, "ERR usage: BGET <key>")
		}
		s.cBGet.Inc(id)
		v, ok := s.blob.Get(lineserver.LookupKey(f[1]))
		if !ok {
			writeLine(w, "NIL")
			break
		}
		w.WriteString("VAL ")
		w.Write(v)
		w.WriteByte('\n')
	case "BDEL":
		if s.blob == nil {
			return s.fail(id, w, errBlobDisabled)
		}
		if len(f) != 2 {
			return s.fail(id, w, "ERR usage: BDEL <key>")
		}
		s.cBDel.Inc(id)
		if s.blob.Delete(id, string(f[1])) {
			writeLine(w, "OK")
		} else {
			writeLine(w, "OK NIL")
		}
	case "LEN":
		s.cLen.Inc(id)
		writeUint(w, "LEN ", uint64(s.m.Len()))
	case "STATS":
		s.cStats.Inc(id)
		st := s.m.Stats()
		fmt.Fprintf(w, "STATS ops=%d helping=%.2f cas_fail=%d served_by=%d",
			st.Ops, st.AvgHelping, st.CASFailures, st.ServedByOther)
		if s.blob != nil {
			// The tier split makes the engine routing observable: blob_small
			// writes were served inline by the P-Sim stripes, blob_large by
			// L-Sim item records (lsim_ops announced rounds, lsim_items
			// committed item write-backs).
			bs := s.blob.Stats()
			fmt.Fprintf(w, " blob_small=%d blob_large=%d lsim_ops=%d lsim_items=%d threshold=%d",
				bs.SmallOps, bs.LargeOps, bs.Large.Ops, bs.ItemsWritten, s.blob.Threshold())
		}
		w.WriteByte('\n')
	case "QUIT":
		writeLine(w, "BYE")
		return true
	default:
		return s.fail(id, w, "ERR unknown command "+cmd)
	}
	return false
}

// fail counts a refused request and writes its error line.
func (s *Server) fail(id int, w *bufio.Writer, msg string) (quit bool) {
	s.cErr.Inc(id)
	writeLine(w, msg)
	return false
}

// Map exposes the underlying map for embedding scenarios and tests.
func (s *Server) Map() *simmap.Map[string, uint64] { return s.m }

// Tiered exposes the large-value store; nil unless the server was built
// with WithLargeValues.
func (s *Server) Tiered() *simmap.Tiered[string] { return s.blob }
