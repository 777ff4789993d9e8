package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// workload is one traffic mix: the daemon and its flags, the preloaded key
// set, the request mix and the fixed rates the open-loop phases run at. The
// rates and limits are constants taken from the seed code's capacity on a
// 2-vCPU host, so a faster program shows as lower latency at the same rate
// and a higher max_rate_ops_s, never as a moved target.
type workload struct {
	name    string
	daemon  string   // "simkvd" or "simingestd"
	flags   []string // daemon flags beyond the listen addresses
	keys    int      // preloaded keys (kv workloads)
	putFrac float64  // share of writes (PUT / BPUT)
	burst   int      // requests written per send; responses read per burst
	blob    int      // value size of BPUT/BGET in bytes; 0 selects uint64 PUT/GET
	limit   time.Duration
	loRate  float64   // open-loop rate of the lo phase, ops/s
	hiRate  float64   // open-loop rate of the hi phase, ops/s
	ladder  []float64 // max-rate ladder rungs, ops/s, ascending
}

// rungs spaces a max-rate ladder at fixed fractions of a seed capacity.
func rungs(seedCap float64) []float64 {
	fr := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.35, 1.5}
	out := make([]float64, len(fr))
	for i, f := range fr {
		out[i] = f * seedCap
	}
	return out
}

// workloads are the benchmark's fixed traffic mixes (see README.md for why
// each exists and which layer metrics it moves).
var workloads = []*workload{
	{
		name: "kv-wire", daemon: "simkvd",
		keys: 1024, putFrac: 0.10, burst: 1,
		limit: time.Millisecond, loRate: 10000, hiRate: 20000, ladder: rungs(50000),
	},
	{
		name: "kv-store", daemon: "simkvd", flags: []string{"-pipeline", "32"},
		keys: 16384, putFrac: 0.50, burst: 32,
		limit: 10 * time.Millisecond, loRate: 5000, hiRate: 10000, ladder: rungs(35000),
	},
	{
		name: "ingest-pubsub", daemon: "simingestd",
		flags: []string{"-shards", "1", "-batch", "32", "-seg", "256", "-retain-events", "65536"},
		burst: 32,
		limit: 2 * time.Millisecond, loRate: 40000, hiRate: 80000, ladder: rungs(300000),
	},
	{
		name: "kv-blob", daemon: "simkvd", flags: []string{"-large-threshold", "1024"},
		keys: 256, putFrac: 0.50, burst: 1, blob: 4096,
		limit: 2 * time.Millisecond, loRate: 4000, hiRate: 10000, ladder: rungs(30000),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// expect is what one response must satisfy; it is fixed when the request is
// generated, so a response can be checked on another goroutine.
type expect struct {
	kind uint8
	key  int
	val  uint64 // kvPut: previous value; kvGetOwn: current value; pub: sequence number
}

const (
	kvPut uint8 = iota
	kvGetOwn
	kvGetForeign
	kvBPut
	kvBGetOwn
	kvBGetForeign
	kvPreload
	kvBPreload
	pubAck
	echoLine
)

// proto is one connection's request stream. request is called by the
// sending goroutine only; response must depend on nothing but its expect,
// because it runs on the receiving goroutine.
type proto interface {
	request(b []byte, now int64) ([]byte, expect)
	response(r *bufio.Reader, e expect) (ok bool, err error)
}

// kvKey renders key index i; kvVal packs (key, version) into a value, so a
// response proves which write it reflects.
func kvKey(b []byte, i int) []byte     { return fmt.Appendf(b, "k%05d", i) }
func kvVal(key int, ver uint32) uint64 { return uint64(key)<<32 | uint64(ver) }

// blobHeader is the fixed-width (key, version) prefix of a blob value.
const blobHeader = len("k00000v0000000000.")

// blobFiller returns the seeded, whitespace-free body shared by every blob
// value of a run.
func blobFiller(seed uint64, size int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0xb10b))
	b := make([]byte, size)
	for i := range b {
		b[i] = 'a' + byte(rng.IntN(26))
	}
	return b
}

// kvStream is connection conn's seeded request stream. Connection c owns the
// keys i with i%2 == c: it alone writes them, so it knows their current
// version and checks every PUT's previous value and every own-key GET
// exactly. A GET of the other connection's key must carry that key.
type kvStream struct {
	w      *workload
	conn   int
	rng    *rand.Rand
	ver    []uint32 // current version of each key (meaningful for own keys)
	filler []byte   // blob body; nil for uint64 workloads
	val    []byte   // scratch blob value
	pre    int      // next own key to preload; -1 once preloading is done
}

func newKVStream(w *workload, seed uint64, conn int) *kvStream {
	s := &kvStream{
		w: w, conn: conn,
		rng: rand.New(rand.NewPCG(seed, uint64(conn)+1)),
		ver: make([]uint32, w.keys),
		pre: conn,
	}
	if w.blob > 0 {
		s.filler = blobFiller(seed, w.blob)
		s.val = make([]byte, w.blob)
	}
	return s
}

// preloadCount is how many preload requests connection conn sends.
func (s *kvStream) preloadCount() int { return (s.w.keys - s.conn + 1) / 2 }

// blobVal renders (key, version) into the scratch blob value.
func (s *kvStream) blobVal(key int, ver uint32) []byte {
	copy(s.val, s.filler)
	fmt.Appendf(s.val[:0], "k%05dv%010d.", key, ver)
	return s.val
}

// next draws the next operation: a write of a uniformly chosen own key with
// probability putFrac, else a read of a uniformly chosen key. Preload
// requests (version 1 of every own key) come first.
func (s *kvStream) next() expect {
	if s.pre >= 0 {
		k := s.pre
		if s.pre += 2; s.pre >= s.w.keys {
			s.pre = -1
		}
		s.ver[k] = 1
		if s.w.blob > 0 {
			return expect{kind: kvBPreload, key: k}
		}
		return expect{kind: kvPreload, key: k}
	}
	if s.rng.Float64() < s.w.putFrac {
		k := 2*s.rng.IntN((s.w.keys-s.conn+1)/2) + s.conn
		prev := s.ver[k]
		s.ver[k]++
		if s.w.blob > 0 {
			return expect{kind: kvBPut, key: k, val: uint64(s.ver[k])}
		}
		return expect{kind: kvPut, key: k, val: kvVal(k, prev)}
	}
	k := s.rng.IntN(s.w.keys)
	own := k%2 == s.conn
	switch {
	case s.w.blob > 0 && own:
		return expect{kind: kvBGetOwn, key: k, val: uint64(s.ver[k])}
	case s.w.blob > 0:
		return expect{kind: kvBGetForeign, key: k}
	case own:
		return expect{kind: kvGetOwn, key: k, val: kvVal(k, s.ver[k])}
	}
	return expect{kind: kvGetForeign, key: k}
}

// line appends e's request line to b.
func (s *kvStream) line(b []byte, e expect) []byte {
	switch e.kind {
	case kvPut, kvPreload:
		b = kvKey(append(b, "PUT "...), e.key)
		b = strconv.AppendUint(append(b, ' '), kvVal(e.key, s.ver[e.key]), 10)
	case kvGetOwn, kvGetForeign:
		b = kvKey(append(b, "GET "...), e.key)
	case kvBPut, kvBPreload:
		b = kvKey(append(b, "BPUT "...), e.key)
		b = append(append(b, ' '), s.blobVal(e.key, s.ver[e.key])...)
	case kvBGetOwn, kvBGetForeign:
		b = kvKey(append(b, "BGET "...), e.key)
	}
	return append(b, '\n')
}

func (s *kvStream) request(b []byte, _ int64) ([]byte, expect) {
	e := s.next()
	return s.line(b, e), e
}

// response checks one kv response line against e.
func (s *kvStream) response(r *bufio.Reader, e expect) (bool, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	line = bytes.TrimRight(line, "\r\n")
	switch e.kind {
	case kvPreload:
		return string(line) == "OK NIL", nil
	case kvBPreload:
		return string(line) == "OK NEW", nil
	case kvBPut:
		return string(line) == "OK SET", nil
	case kvPut:
		v, ok := uintAfter(line, "OK ")
		return ok && v == e.val, nil
	case kvGetOwn:
		v, ok := uintAfter(line, "VAL ")
		return ok && v == e.val, nil
	case kvGetForeign:
		v, ok := uintAfter(line, "VAL ")
		return ok && int(v>>32) == e.key && uint32(v) >= 1, nil
	case kvBGetOwn, kvBGetForeign:
		v, ok := bytes.CutPrefix(line, []byte("VAL "))
		if !ok || len(v) != s.w.blob {
			return false, nil
		}
		var hdr [blobHeader]byte
		if e.kind == kvBGetOwn {
			want := fmt.Appendf(hdr[:0], "k%05dv%010d.", e.key, e.val)
			return bytes.Equal(v[:blobHeader], want) && bytes.Equal(v[blobHeader:], s.filler[blobHeader:]), nil
		}
		want := fmt.Appendf(hdr[:0], "k%05dv", e.key)
		return bytes.HasPrefix(v, want) && bytes.Equal(v[blobHeader:], s.filler[blobHeader:]), nil
	}
	return false, nil
}

// uintAfter parses the unsigned integer following prefix in line.
func uintAfter(line []byte, prefix string) (uint64, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(prefix))
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(rest), 10, 64)
	return v, err == nil
}

// pubStream publishes events whose payload is the send time in nanoseconds
// since the run's epoch. Every PUB must be acknowledged with the producer's
// next sequence number; sent records each sequence number's payload for the
// consumer to check delivery against.
type pubStream struct {
	seq  uint64
	last int64
	sent *sentLog
}

func (p *pubStream) request(b []byte, now int64) ([]byte, expect) {
	if now <= p.last {
		now = p.last + 1 // payloads stay unique and increasing
	}
	p.last = now
	p.seq++
	p.sent.add(now)
	b = strconv.AppendInt(append(b, "PUB "...), now, 10)
	return append(b, '\n'), expect{kind: pubAck, val: p.seq}
}

func (p *pubStream) response(r *bufio.Reader, e expect) (bool, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	v, ok := uintAfter(bytes.TrimRight(line, "\r\n"), "OK ")
	return ok && v == e.val, nil
}

// sentLog is the payload of every published sequence number (index seq-1).
type sentLog struct {
	mu  sync.Mutex
	pay []int64
}

func (l *sentLog) add(p int64) {
	l.mu.Lock()
	l.pay = append(l.pay, p)
	l.mu.Unlock()
}

func (l *sentLog) len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.pay))
}

// payload returns the payload published with seq, or false if seq was never
// published.
func (l *sentLog) payload(seq uint64) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 || seq > uint64(len(l.pay)) {
		return 0, false
	}
	return l.pay[seq-1], true
}

// echoStream sends numbered lines to the host-baseline echo server and
// expects each back verbatim.
type echoStream struct{ n uint64 }

func (s *echoStream) request(b []byte, _ int64) ([]byte, expect) {
	s.n++
	b = strconv.AppendUint(append(b, "ECHO k"...), s.n, 10)
	return append(b, '\n'), expect{kind: echoLine, val: s.n}
}

func (s *echoStream) response(r *bufio.Reader, e expect) (bool, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	v, ok := uintAfter(bytes.TrimRight(line, "\r\n"), "ECHO k")
	return ok && v == e.val, nil
}
