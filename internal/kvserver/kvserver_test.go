package kvserver

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lineserver"
	"repro/internal/obs/trace"
)

// dialPipe wires a client to ServeConn over an in-memory pipe.
func dialPipe(t *testing.T, s *Server, id int) (send func(string) string, shutdown func()) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer server.Close()
		s.ServeConn(id, server)
		close(done)
	}()
	r := bufio.NewReader(client)
	send = func(line string) string {
		if _, err := fmt.Fprintln(client, line); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return strings.TrimSpace(resp)
	}
	return send, func() {
		client.Close()
		<-done
	}
}

func TestProtocolBasics(t *testing.T) {
	s := New(2, 2)
	send, done := dialPipe(t, s, 0)
	defer done()

	cases := [][2]string{
		{"GET a", "NIL"},
		{"PUT a 5", "OK NIL"},
		{"GET a", "VAL 5"},
		{"PUT a 7", "OK 5"},
		{"DEL a", "OK 7"},
		{"DEL a", "OK NIL"},
		{"LEN", "LEN 0"},
		{"PUT b 1", "OK NIL"},
		{"LEN", "LEN 1"},
	}
	for _, c := range cases {
		if got := send(c[0]); got != c[1] {
			t.Fatalf("%q -> %q, want %q", c[0], got, c[1])
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	s := New(1, 1)
	send, done := dialPipe(t, s, 0)
	defer done()

	for _, req := range []string{
		"PUT a", "PUT a b c d", "PUT a notanumber",
		"GET", "DEL", "NOSUCH x",
	} {
		if got := send(req); !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q -> %q, want ERR", req, got)
		}
	}
	// The connection survives errors.
	if got := send("PUT k 1"); got != "OK NIL" {
		t.Fatalf("connection broken after errors: %q", got)
	}
}

func TestProtocolQuit(t *testing.T) {
	s := New(1, 1)
	send, done := dialPipe(t, s, 0)
	if got := send("QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
	done()
}

func TestProtocolStats(t *testing.T) {
	s := New(1, 1)
	send, done := dialPipe(t, s, 0)
	defer done()
	send("PUT x 1")
	got := send("STATS")
	if !strings.HasPrefix(got, "STATS ops=") {
		t.Fatalf("STATS -> %q", got)
	}
	// Extended fields: publish failures and helped completions.
	for _, field := range []string{"cas_fail=", "served_by="} {
		if !strings.Contains(got, field) {
			t.Fatalf("STATS missing %s: %q", field, got)
		}
	}
}

// TestCommandMetrics: the per-command counters and the map recorder see the
// traffic.
func TestCommandMetrics(t *testing.T) {
	s := New(2, 2)
	send, done := dialPipe(t, s, 0)
	defer done()
	send("PUT a 1")
	send("PUT b 2")
	send("GET a")
	send("DEL b")
	send("BOGUS")

	snap := s.Registry().Snapshot()
	for name, want := range map[string]uint64{
		"kv_put_total": 2,
		"kv_get_total": 1,
		"kv_del_total": 1,
		"kv_err_total": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	// 3 mutations went through the instrumented map.
	if got := snap.Counters["map_ops_total"]; got != 3 {
		t.Fatalf("map_ops_total = %d, want 3", got)
	}
	lat, ok := snap.Histograms["map_op_latency_ns"]
	if !ok || lat.Count != 3 {
		t.Fatalf("map_op_latency_ns count = %d (present=%v), want 3", lat.Count, ok)
	}
	if lat.Quantile(0.99) == 0 || lat.Max == 0 {
		t.Fatalf("latency histogram recorded no time: %+v", lat)
	}
}

// TestFlightRecorderTracesEveryOp: the store's recorders sample every
// operation, and the flight recorder follows their draw, so 200 PUTs on one
// connection leave 200 round/served events on that connection's pid.
func TestFlightRecorderTracesEveryOp(t *testing.T) {
	const puts = 200
	s := New(2, 2, WithFlightRecorder(1024))
	send, done := dialPipe(t, s, 0)
	for i := 0; i < puts; i++ {
		if got := send(fmt.Sprintf("PUT k%d %d", i, i)); !strings.HasPrefix(got, "OK") {
			t.Fatalf("PUT -> %q", got)
		}
	}
	done()
	n := 0
	for _, ev := range s.Tracer().SnapshotPid(0) {
		if ev.Kind == trace.KindRound || ev.Kind == trace.KindServed {
			n++
		}
	}
	if n != puts {
		t.Fatalf("pid 0 holds %d round/served events, want %d (one per PUT)", n, puts)
	}
}

// TestCloseUnblocksInFlightConnections: Close must not wait for (or leak)
// serve goroutines stuck reading from idle clients — it closes their
// connections and drains.
func TestCloseUnblocksInFlightConnections(t *testing.T) {
	s := New(2, 2)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}

	// Two clients connect, speak once, then go idle holding the connection.
	var conns []net.Conn
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conns = append(conns, conn)
		r := bufio.NewReader(conn)
		fmt.Fprintf(conn, "PUT k%d 1\n", i)
		if resp, _ := r.ReadString('\n'); !strings.HasPrefix(resp, "OK") {
			t.Fatalf("PUT -> %q", resp)
		}
	}
	if got := s.Registry().Snapshot().Gauges["kv_connections"]; got != 2 {
		t.Fatalf("kv_connections = %d, want 2", got)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on in-flight idle connections")
	}
	if got := s.Registry().Snapshot().Gauges["kv_connections"]; got != 0 {
		t.Fatalf("kv_connections after close = %d, want 0", got)
	}
	for _, c := range conns {
		c.Close()
	}
}

func TestTCPEndToEnd(t *testing.T) {
	s := New(4, 4)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprintln(conn, "PUT hello 42")
	if resp, _ := r.ReadString('\n'); strings.TrimSpace(resp) != "OK NIL" {
		t.Fatalf("PUT -> %q", resp)
	}
	fmt.Fprintln(conn, "GET hello")
	if resp, _ := r.ReadString('\n'); strings.TrimSpace(resp) != "VAL 42" {
		t.Fatalf("GET -> %q", resp)
	}
}

// TestConcurrentClientsConservation: many TCP clients hammer disjoint keys;
// every binding must be present afterwards.
func TestConcurrentClientsConservation(t *testing.T) {
	const clients, keysPer = 6, 50
	s := New(clients, 4)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for k := 0; k < keysPer; k++ {
				fmt.Fprintf(conn, "PUT k%d-%d %d\n", c, k, c*1000+k)
				if resp, _ := r.ReadString('\n'); !strings.HasPrefix(resp, "OK") {
					t.Errorf("PUT -> %q", resp)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := s.Map().Len(); got != clients*keysPer {
		t.Fatalf("map has %d entries, want %d", got, clients*keysPer)
	}
	for c := 0; c < clients; c++ {
		for k := 0; k < keysPer; k++ {
			key := fmt.Sprintf("k%d-%d", c, k)
			if v, ok := s.Map().Get(key); !ok || v != uint64(c*1000+k) {
				t.Fatalf("key %s = (%d,%v)", key, v, ok)
			}
		}
	}
}

// TestClientSlotRecycling: more sequential connections than client slots —
// ids must recycle.
func TestClientSlotRecycling(t *testing.T) {
	s := New(2, 2)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		r := bufio.NewReader(conn)
		fmt.Fprintf(conn, "PUT k%d 1\nQUIT\n", i)
		if resp, _ := r.ReadString('\n'); !strings.HasPrefix(resp, "OK") {
			t.Fatalf("PUT -> %q", resp)
		}
		if resp, _ := r.ReadString('\n'); strings.TrimSpace(resp) != "BYE" {
			t.Fatalf("QUIT -> %q", resp)
		}
		conn.Close()
	}
	if got := s.Map().Len(); got != 8 {
		t.Fatalf("map has %d entries, want 8", got)
	}
}

// TestBlobProtocol exercises the large-value command family over both tiers:
// a value below the threshold rides the inline map, one at or above it is
// served by an L-Sim item, and STATS reports the routing split.
func TestBlobProtocol(t *testing.T) {
	const threshold = 8
	s := New(2, 2, WithLargeValues(threshold))
	send, done := dialPipe(t, s, 0)
	defer done()

	small := "tiny"                               // 4 bytes: inline tier
	large := strings.Repeat("x", threshold) + "Z" // 9 bytes: item tier

	cases := [][2]string{
		{"BGET a", "NIL"},
		{"BPUT a " + small, "OK NEW"},
		{"BGET a", "VAL " + small},
		{"BPUT a " + large, "OK SET"}, // small -> large tier move
		{"BGET a", "VAL " + large},
		{"BPUT a " + large + "2", "OK SET"}, // in-tier L-Sim overwrite
		{"BGET a", "VAL " + large + "2"},
		{"BDEL a", "OK"},
		{"BDEL a", "OK NIL"},
		{"BGET a", "NIL"},
		{"BPUT big " + large, "OK NEW"},
	}
	for _, c := range cases {
		if got := send(c[0]); got != c[1] {
			t.Fatalf("%q -> %q, want %q", c[0], got, c[1])
		}
	}

	stats := send("STATS")
	for _, want := range []string{"blob_small=", "blob_large=", "lsim_ops=", "lsim_items=",
		fmt.Sprintf("threshold=%d", threshold)} {
		if !strings.Contains(stats, want) {
			t.Fatalf("STATS %q missing %q", stats, want)
		}
	}
	bs := s.Tiered().Stats()
	if bs.SmallOps == 0 || bs.LargeOps == 0 {
		t.Fatalf("tier routing counters small=%d large=%d, want both > 0", bs.SmallOps, bs.LargeOps)
	}
	if bs.Large.Ops == 0 {
		t.Fatal("no L-Sim rounds recorded for the in-tier overwrite")
	}

	for _, req := range []string{"BPUT a", "BPUT a b c", "BGET", "BDEL x y"} {
		if got := send(req); !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q -> %q, want ERR", req, got)
		}
	}
}

// TestBlobDisabled pins the error surface when the tier is off, and that
// STATS stays in its legacy shape.
func TestBlobDisabled(t *testing.T) {
	s := New(1, 1)
	send, done := dialPipe(t, s, 0)
	defer done()
	for _, req := range []string{"BPUT a xx", "BGET a", "BDEL a"} {
		if got := send(req); !strings.HasPrefix(got, "ERR large-value tier disabled") {
			t.Fatalf("%q -> %q, want disabled error", req, got)
		}
	}
	if got := send("STATS"); strings.Contains(got, "blob_") {
		t.Fatalf("STATS leaked blob fields without WithLargeValues: %q", got)
	}
}

// TestBlobPipelinedBarrier checks that blob commands interleave correctly
// with batched uint64 traffic in pipeline mode (they execute as run
// barriers, responses in request order).
func TestBlobPipelinedBarrier(t *testing.T) {
	s := New(2, 2, WithPipeline(8), WithLargeValues(8))
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer server.Close()
		s.ServeConn(0, server)
		close(done)
	}()
	defer func() { client.Close(); <-done }()

	reqs := "PUT a 1\nBPUT blob 123456789\nPUT a 2\nBGET blob\nGET a\nQUIT\n"
	if _, err := client.Write([]byte(reqs)); err != nil {
		t.Fatalf("write: %v", err)
	}
	want := []string{"OK NIL", "OK NEW", "OK 1", "VAL 123456789", "VAL 2", "BYE"}
	r := bufio.NewReader(client)
	for _, w := range want {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read (want %q): %v", w, err)
		}
		if got := strings.TrimSpace(line); got != w {
			t.Fatalf("pipelined response = %q, want %q", got, w)
		}
	}
}

// TestCommandFolding pins the upper-casing corner cases: ASCII commands in
// any case, and non-ASCII words that strings.ToUpper folds onto a command
// word (so the server still serves them) or leaves unknown.
func TestCommandFolding(t *testing.T) {
	for _, w := range []string{
		"put", "Get", "dEl", "bput", "BGET", "bdel", "len", "stats", "quit",
		"quıt", "ſtatſ", "puts", "statsx", "x", "é", "\xff", "ǆ",
	} {
		if got, want := lineserver.Command([]byte(w), commands), strings.ToUpper(w); got != want {
			t.Errorf("Command(%q) = %q, want %q", w, got, want)
		}
	}
}

// TestLineTooLong: both serve loops refuse a line over 64 KiB with one
// reply and one count, and keep the connection open.
func TestLineTooLong(t *testing.T) {
	for _, depth := range []int{1, 32} {
		s := New(1, 1, WithPipeline(depth))
		send, done := dialPipe(t, s, 0)
		if got := send("BPUT k " + strings.Repeat("v", 70<<10)); got != "ERR line too long" {
			t.Fatalf("pipeline %d: oversized line -> %q", depth, got)
		}
		if got := send("PUT k 1"); got != "OK NIL" {
			t.Fatalf("pipeline %d: request after it -> %q", depth, got)
		}
		if got := s.Registry().Snapshot().Counters[`kv_refused_total{reason="line_too_long"}`]; got != 1 {
			t.Errorf("pipeline %d: kv_refused_total{reason=\"line_too_long\"} = %d, want 1", depth, got)
		}
		done()
	}
}
