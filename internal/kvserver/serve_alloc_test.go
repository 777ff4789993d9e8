package kvserver

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// memConn is an in-memory net.Conn that replays one request line a given
// number of times, handing out one line per Read as a client that waits
// for each reply would, and counts the Write calls that reach it. It needs
// no peer goroutine, so a test can count the allocations of ServeConn
// alone.
type memConn struct {
	net.Conn // nil: ServeConn only calls Read and Write
	req      []byte
	left     int // lines still to hand out
	off      int // bytes of the current line already handed out
	writes   int
	last     []byte // the last Write's bytes (buffer reused)
}

func (c *memConn) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.req[c.off:])
	if c.off += n; c.off == len(c.req) {
		c.off = 0
		c.left--
	}
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error) {
	c.writes++
	c.last = append(c.last[:0], p...)
	return len(p), nil
}

// serve runs ServeConn over a memConn replaying req n times and returns
// the conn and the heap allocations the run made.
func serve(s *Server, req string, n int) (*memConn, uint64) {
	c := &memConn{req: []byte(req), left: n}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.ServeConn(0, c)
	runtime.ReadMemStats(&after)
	return c, after.Mallocs - before.Mallocs
}

// allocsPerRequest is the marginal allocation count of one more req: the
// difference between a long and a short ServeConn run, so per-connection
// set-up (buffers, pprof labels) cancels out.
func allocsPerRequest(s *Server, req string) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const short, long = 100, 1100
	serve(s, req, long) // warm up the store's recycling pools
	_, a := serve(s, req, short)
	_, b := serve(s, req, long)
	return (float64(b) - float64(a)) / (long - short)
}

// blobServers returns a large-value server per serve loop, with a 4 KiB
// value stored under "k" on the L-Sim item tier.
func blobServers(t *testing.T) (map[string]*Server, string) {
	t.Helper()
	val := strings.Repeat("v", 4096)
	servers := map[string]*Server{
		"unpipelined": New(2, 2, WithLargeValues(1024)),
		"pipeline32":  New(2, 2, WithLargeValues(1024), WithPipeline(32)),
	}
	for _, s := range servers {
		if c, _ := serve(s, "BPUT k "+val+"\n", 1); string(c.last) != "OK NEW\n" {
			t.Fatalf("BPUT install -> %q", c.last)
		}
	}
	return servers, val
}

// TestBlobServeAllocs gates the one-copy blob path: a 4 KiB BGET allocates
// nothing, and a 4 KiB BPUT overwrite allocates only the store's owned
// copy of the value and its key string.
func TestBlobServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}
	servers, val := blobServers(t)
	for name, s := range servers {
		t.Run(name, func(t *testing.T) {
			if got := allocsPerRequest(s, "BGET k\n"); got > 0.01 {
				t.Errorf("4 KiB BGET allocs/op = %.3f, want 0", got)
			}
			if got := allocsPerRequest(s, "BPUT k "+val+"\n"); got > 2.01 {
				t.Errorf("4 KiB BPUT overwrite allocs/op = %.3f, want <= 2", got)
			}
		})
	}
}

// TestBlobReplyOneWrite: a 4 KiB BGET reply reaches the connection whole,
// in exactly one Write call.
func TestBlobReplyOneWrite(t *testing.T) {
	servers, val := blobServers(t)
	for name, s := range servers {
		t.Run(name, func(t *testing.T) {
			const n = 50
			c, _ := serve(s, "BGET k\n", n)
			if c.writes != n {
				t.Errorf("%d BGETs reached the conn in %d Write calls, want %d", n, c.writes, n)
			}
			if want := "VAL " + val + "\n"; string(c.last) != want {
				t.Errorf("last Write = %d bytes, want the %d-byte reply", len(c.last), len(want))
			}
		})
	}
}

// TestBurstReplyOneWrite: 64 pipelined PUTs that arrive in one read are
// answered in one Write at depth 1 and at depth 32, and
// kv_reply_writes_total counts that Write.
func TestBurstReplyOneWrite(t *testing.T) {
	var burst strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&burst, "PUT k%d %d\n", i, i)
	}
	for _, depth := range []int{1, 32} {
		s := New(2, 2, WithPipeline(depth))
		c, _ := serve(s, burst.String(), 1)
		if want := strings.Repeat("OK NIL\n", 64); c.writes != 1 || string(c.last) != want {
			t.Errorf("depth %d: 64 PUTs in one read -> %d Writes, last %.40q; want 1 Write of 64 replies", depth, c.writes, c.last)
		}
		if got := s.Registry().Snapshot().Counters["kv_reply_writes_total"]; got != 1 {
			t.Errorf("depth %d: kv_reply_writes_total = %d, want 1", depth, got)
		}
	}
}
