package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/ingest"
	"repro/internal/kvserver"
	"repro/internal/queue"
	"repro/internal/retention"
	"repro/internal/simmap"
	"repro/internal/spool"
)

// The traced run replays the workload's seeded op stream against each
// layer's public Go API in this process and records a span around every
// call. Spans stay in memory and are written out when the run ends.

// span is one timed call: start and end are ns since the run's epoch, parent
// indexes the span that caused it (-1 for a root), items counts the keys or
// events the call handled.
type span struct {
	name       string
	start, end int64
	parent     int32
	items      int32
}

type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, items int) int {
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.epoch)), parent: int32(parent), items: int32(items)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].end = int64(time.Since(r.epoch)) }

// spanAgg is the total over every span of one name.
type spanAgg struct {
	n     int
	ns    int64 // summed duration
	self  int64 // summed duration not covered by child spans
	items int64
}

func (a spanAgg) perCall() float64 { return float64(a.ns) / float64(max(a.n, 1)) }
func (a spanAgg) perItem() float64 { return float64(a.ns) / float64(max(a.items, 1)) }

func aggregate(spans []span) map[string]spanAgg {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]spanAgg{}
	for i, s := range spans {
		a := out[s.name]
		a.n++
		a.ns += s.end - s.start
		a.self += s.end - s.start - child[i]
		a.items += int64(s.items)
		out[s.name] = a
	}
	return out
}

// writeSpans writes spans as {"names": [...], "spans": [[name, start_ns,
// end_ns, parent, items], ...]}.
func writeSpans(path string, spans []span) error {
	idx := map[string]int{}
	var names []string
	rows := make([][5]int64, len(spans))
	for i, s := range spans {
		n, ok := idx[s.name]
		if !ok {
			n = len(names)
			idx[s.name] = n
			names = append(names, s.name)
		}
		rows[i] = [5]int64{int64(n), s.start, s.end, int64(s.parent), int64(s.items)}
	}
	b, err := json.Marshal(map[string]any{"names": names, "spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replayConn is an in-memory net.Conn: reads come from the request bytes,
// writes collect the responses.
type replayConn struct {
	net.Conn // nil; only the methods below are called
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *replayConn) Read(b []byte) (int, error)  { return c.in.Read(b) }
func (c *replayConn) Write(b []byte) (int, error) { return c.out.Write(b) }
func (c *replayConn) Close() error                { return nil }

// kvTrace is one connection's share of a kv op stream: the preload and op
// request lines and the expectation of every response.
type kvTrace struct {
	preload, ops  []byte
	preExp, opExp []expect
	stream        *kvStream
}

func newKVTrace(w *workload, seed uint64, conn, n int) *kvTrace {
	t := &kvTrace{stream: newKVStream(w, seed, conn)}
	for range t.stream.preloadCount() {
		var e expect
		t.preload, e = t.stream.request(t.preload, 0)
		t.preExp = append(t.preExp, e)
	}
	for range n {
		var e expect
		t.ops, e = t.stream.request(t.ops, 0)
		t.opExp = append(t.opExp, e)
	}
	return t
}

// checkAll checks responses against exps and returns the number that fail.
func checkAll(p proto, resp []byte, exps []expect) int {
	r := bufio.NewReaderSize(bytes.NewReader(resp), 64<<10)
	bad := 0
	for _, e := range exps {
		ok, err := p.response(r, e)
		if err != nil {
			return bad + 1 + len(exps) // truncated output: everything after fails
		}
		if !ok {
			bad++
		}
	}
	return bad
}

func flagValue(flags []string, name string) int {
	for i := 0; i+1 < len(flags); i++ {
		if flags[i] == name {
			v, _ := strconv.Atoi(flags[i+1])
			return v
		}
	}
	return 0
}

// Process ids and stripes as simkvd and simingestd run with by default.
const (
	replayClients = 64
	replayStripes = 16
)

// layerNs is what a replay measured, keyed by per-layer metric name.
type layerNs map[string]float64

// replayKV replays n ops per connection through kvserver.ServeConn and
// through the store API the server calls (simmap or simmap.Tiered).
func replayKV(w *workload, seed uint64, n int, rec *recorder) (layerNs, int) {
	out := layerNs{}
	bad := 0
	traces := []*kvTrace{newKVTrace(w, seed, 0, n), newKVTrace(w, seed, 1, n)}
	ops := float64(2 * n)

	// kvserver: the server loop on an in-memory conn fed the wire bytes.
	var opts []kvserver.Option
	if p := flagValue(w.flags, "-pipeline"); p > 0 {
		opts = append(opts, kvserver.WithPipeline(p))
	}
	if th := flagValue(w.flags, "-large-threshold"); th > 0 {
		opts = append(opts, kvserver.WithLargeValues(th))
	}
	srv := kvserver.New(replayClients, replayStripes, opts...)
	for id, t := range traces {
		c := &replayConn{in: bytes.NewReader(t.preload)}
		srv.ServeConn(id, c)
		bad += checkAll(t.stream, c.out.Bytes(), t.preExp)
	}
	root := rec.begin("replay.kvserver", -1, 2*n)
	var serveNs int64
	var mallocs uint64
	for id, t := range traces {
		c := &replayConn{in: bytes.NewReader(t.ops)}
		c.out.Grow(len(t.ops) + n*(w.blob+24))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := rec.begin("kvserver.ServeConn", root, n)
		srv.ServeConn(id, c)
		rec.end(sp)
		runtime.ReadMemStats(&m1)
		serveNs += rec.spans[sp].end - rec.spans[sp].start
		mallocs += m1.Mallocs - m0.Mallocs
		bad += checkAll(t.stream, c.out.Bytes(), t.opExp)
	}
	rec.end(root)
	out["kvserver.serve_ns_per_op"] = float64(serveNs) / ops
	out["kvserver.allocs_per_op"] = float64(mallocs) / ops

	keys := make([]string, w.keys)
	for i := range keys {
		keys[i] = string(kvKey(nil, i))
	}
	replayStore := replaySimmap
	if w.blob > 0 {
		replayStore = replayTiered
	}
	storeNs, storeBad := replayStore(w, traces, keys, rec, out)
	out["kvserver.self_ns_per_op"] = out["kvserver.serve_ns_per_op"] - storeNs/ops
	return out, bad + storeBad
}

// replaySimmap replays the op stream against simmap.Map: once call by call
// (Put/Get), once grouped the way the pipelined server groups it (runs of
// one command within a 32-request batch become MSet/MGet), and once for the
// allocation count of the puts alone. It returns the store time of the
// grouping the daemon uses and the number of wrong results.
func replaySimmap(w *workload, traces []*kvTrace, keys []string, rec *recorder, out layerNs) (storeNs float64, bad int) {
	fresh := func() *simmap.Map[string, uint64] {
		m := simmap.New[string, uint64](replayClients, replayStripes)
		for k := range keys {
			m.Put(k%2, keys[k], kvVal(k, 1))
		}
		return m
	}

	m := fresh()
	root := rec.begin("replay.simmap", -1, 0)
	for id, t := range traces {
		for _, e := range t.opExp {
			switch e.kind {
			case kvPut:
				sp := rec.begin("simmap.Put", root, 1)
				prev, ok := m.Put(id, keys[e.key], e.val+1)
				rec.end(sp)
				if !ok || prev != e.val {
					bad++
				}
			default:
				sp := rec.begin("simmap.Get", root, 1)
				v, ok := m.Get(keys[e.key])
				rec.end(sp)
				if !ok || (e.kind == kvGetOwn && v != e.val) || int(v>>32) != e.key {
					bad++
				}
			}
		}
	}
	rec.end(root)

	m = fresh()
	root = rec.begin("replay.simmap.batched", -1, 0)
	var ks []string
	var vs []uint64
	for id, t := range traces {
		for lo := 0; lo < len(t.opExp); lo += 32 {
			batch := t.opExp[lo:min(lo+32, len(t.opExp))]
			for i := 0; i < len(batch); {
				j := i
				ks, vs = ks[:0], vs[:0]
				for ; j < len(batch) && (batch[j].kind == kvPut) == (batch[i].kind == kvPut); j++ {
					ks = append(ks, keys[batch[j].key])
					vs = append(vs, batch[j].val+1)
				}
				if batch[i].kind == kvPut {
					sp := rec.begin("simmap.MSet", root, len(ks))
					m.MSet(id, ks, vs)
					rec.end(sp)
				} else {
					sp := rec.begin("simmap.MGet", root, len(ks))
					m.MGet(id, ks)
					rec.end(sp)
				}
				i = j
			}
		}
	}
	rec.end(root)

	m = fresh()
	var puts int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for id, t := range traces {
		for _, e := range t.opExp {
			if e.kind == kvPut {
				m.Put(id, keys[e.key], e.val+1)
				puts++
			}
		}
	}
	runtime.ReadMemStats(&m1)
	out["simmap.allocs_per_put"] = float64(m1.Mallocs-m0.Mallocs) / float64(max(puts, 1))
	out["simmap.bytes_per_put"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(max(puts, 1))

	agg := aggregate(rec.spans)
	out["simmap.put_ns"] = agg["simmap.Put"].perCall()
	out["simmap.get_ns"] = agg["simmap.Get"].perCall()
	out["simmap.mset_ns_per_key"] = agg["simmap.MSet"].perItem()
	out["simmap.mget_ns_per_key"] = agg["simmap.MGet"].perItem()
	if flagValue(w.flags, "-pipeline") > 1 {
		return float64(agg["simmap.MSet"].ns + agg["simmap.MGet"].ns), bad
	}
	return float64(agg["simmap.Put"].ns + agg["simmap.Get"].ns), bad
}

// replayTiered replays the BPUT/BGET stream against simmap.Tiered.
func replayTiered(w *workload, traces []*kvTrace, keys []string, rec *recorder, out layerNs) (storeNs float64, bad int) {
	th := flagValue(w.flags, "-large-threshold")
	t := simmap.NewTiered[string](replayClients, replayStripes, th)
	vals := traces[0].stream
	for k := range keys {
		t.Put(k%2, keys[k], vals.blobVal(k, 1))
	}
	root := rec.begin("replay.tiered", -1, 0)
	for id, tr := range traces {
		for _, e := range tr.opExp {
			if e.kind == kvBPut {
				v := vals.blobVal(e.key, uint32(e.val))
				sp := rec.begin("tiered.Put", root, 1)
				existed := t.Put(id, keys[e.key], v)
				rec.end(sp)
				if !existed {
					bad++
				}
				continue
			}
			sp := rec.begin("tiered.Get", root, 1)
			v, ok := t.Get(keys[e.key])
			rec.end(sp)
			if !ok || len(v) != w.blob || (e.kind == kvBGetOwn && !bytes.Equal(v, vals.blobVal(e.key, uint32(e.val)))) {
				bad++
			}
		}
	}
	rec.end(root)
	agg := aggregate(rec.spans)
	out["tiered.bput_ns"] = agg["tiered.Put"].perCall()
	out["tiered.bget_ns"] = agg["tiered.Get"].perCall()
	return float64(agg["tiered.Put"].ns + agg["tiered.Get"].ns), bad
}

// replayIngest replays bursts of 32 published events through the ingest
// pipeline (AppendBatch, Drain, a consumer's View.Read every 256 events, a
// retention pass every 4096), then through a bare SimQueue and a bare spool.
// Process ids follow simingestd with one partition: producer 0, the drainer
// and the retention runner after the 64 client slots.
func replayIngest(seed uint64, bursts int, rec *recorder) (layerNs, int) {
	const (
		burst   = 32
		ids     = replayClients + 2
		drainID = replayClients
		retID   = replayClients + 1
	)
	out := layerNs{}
	bad := 0
	payloads := make([]uint64, burst)
	cfg := spool.Config{SegEvents: 256}

	p := ingest.New(ids, ingest.Config{Batch: burst, Spool: cfg})
	rr := retention.NewRunner(p.Spool(), retID, retention.Policy{MaxEvents: 65536})
	var seqs []uint64
	var evs []spool.Event
	var cursor uint64
	root := rec.begin("replay.ingest", -1, 0)
	for b := range bursts {
		for i := range payloads {
			payloads[i] = seed + uint64(b*burst+i)
		}
		sp := rec.begin("ingest.AppendBatch", root, burst)
		seqs = p.AppendBatch(0, payloads, seqs[:0])
		rec.end(sp)
		sp = rec.begin("ingest.Drain", root, 0)
		moved := p.Drain(drainID, 128)
		rec.end(sp)
		rec.spans[sp].items = int32(moved)
		if moved != burst || seqs[burst-1] != uint64((b+1)*burst) {
			bad++
		}
		if b%8 == 7 {
			sp = rec.begin("ingest.View.Read", root, 0)
			var skipped uint64
			evs, cursor, skipped = p.View().Read(cursor, 256, evs[:0])
			rec.end(sp)
			rec.spans[sp].items = int32(len(evs))
			for i, ev := range evs {
				if ev.Seq != cursor-uint64(len(evs))+uint64(i)+1 || ev.Payload != seed+ev.Seq-1 {
					bad++
				}
			}
			if skipped != 0 || len(evs) != 256 {
				bad++
			}
		}
		if b%128 == 127 {
			sp = rec.begin("retention.Pass", root, 1)
			rr.Pass()
			rec.end(sp)
		}
	}
	rec.end(root)

	q := queue.NewSimQueue[spool.Event](ids)
	sp := spool.NewEvents(ids, cfg)
	batch := make([]spool.Event, burst)
	var offs []uint64
	cursor = 0
	root = rec.begin("replay.queue_spool", -1, 0)
	for b := range bursts {
		for i := range batch {
			batch[i] = spool.Event{Payload: seed + uint64(b*burst+i), Seq: uint64(b*burst + i + 1)}
		}
		s := rec.begin("queue.EnqueueBatch", root, burst)
		q.EnqueueBatch(0, batch)
		rec.end(s)
		s = rec.begin("queue.DequeueBatch", root, 0)
		evs = q.DequeueBatch(drainID, 128, evs[:0])
		rec.end(s)
		rec.spans[s].items = int32(len(evs))
		if len(evs) != burst || evs[0].Seq != batch[0].Seq {
			bad++
		}
		s = rec.begin("spool.AppendBatch", root, burst)
		offs = sp.AppendBatch(drainID, batch, offs[:0])
		rec.end(s)
		if offs[0] != uint64(b*burst) {
			bad++
		}
		if b%8 == 7 {
			s = rec.begin("spool.View.Read", root, 0)
			evs, cursor, _ = sp.Snapshot().Read(cursor, 256, evs[:0])
			rec.end(s)
			rec.spans[s].items = int32(len(evs))
			if len(evs) != 256 {
				bad++
			}
		}
	}
	rec.end(root)

	agg := aggregate(rec.spans)
	out["ingest.append_batch_ns_per_event"] = agg["ingest.AppendBatch"].perItem()
	out["ingest.drain_ns_per_event"] = agg["ingest.Drain"].perItem()
	out["queue.enq_batch_ns"] = agg["queue.EnqueueBatch"].perCall()
	out["queue.deq_batch_ns"] = agg["queue.DequeueBatch"].perCall()
	out["spool.append_batch_ns_per_event"] = agg["spool.AppendBatch"].perItem()
	out["spool.read_ns_per_event"] = agg["spool.View.Read"].perItem()
	out["retention.pass_ns"] = agg["retention.Pass"].perCall()
	return out, bad
}
