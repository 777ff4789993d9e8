package lineserver

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// echoServer returns a server whose executor answers each line "OK <line>"
// and a QUIT line "BYE", serving batches of up to depth lines.
func echoServer(slots, depth int) (*Server, *obs.Registry) {
	reg := obs.NewRegistry()
	var s *Server
	s = New(reg, "t", slots, func(slot int, conn net.Conn) {
		w := bufio.NewWriter(conn)
		s.Serve(slot, conn, w, depth, func(lines [][]byte) bool {
			for _, l := range lines {
				if string(l) == "QUIT" {
					w.WriteString("BYE\n")
					return true
				}
				w.WriteString("OK ")
				w.Write(l)
				w.WriteByte('\n')
			}
			return false
		})
	})
	return s, reg
}

// pipeListener is an in-memory listener: dial hands the server end of a
// net.Pipe to Accept and returns the client end.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func listenPipe(s *Server) *pipeListener {
	l := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	s.serve(l)
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// refused reads <prefix>_refused_total{reason=reason}.
func refused(reg *obs.Registry, reason string) uint64 {
	return reg.Snapshot().Counters[obs.Labeled("t_refused_total", "reason", reason)]
}

// waitFor polls cond until it holds, failing after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// heapBound fails the test if more than 4 MiB were allocated since before.
func heapBound(t *testing.T, before *runtime.MemStats) {
	t.Helper()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("heap grew by %d KiB, want at most 4 MiB", grew>>10)
	}
}

// closePromptly fails the test unless s.Close returns within a second.
func closePromptly(t *testing.T, s *Server) {
	t.Helper()
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close did not return within a second")
	}
}

// readLine reads one reply line from r.
func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply: %v (got %q)", err, line)
	}
	return strings.TrimSuffix(line, "\n")
}

// writeRun writes n bytes of c to conn in 64 KiB chunks and reports the
// first write error on the returned channel.
func writeRun(conn net.Conn, c byte, n int) <-chan error {
	errc := make(chan error, 1)
	go func() {
		chunk := bytes.Repeat([]byte{c}, 64<<10)
		for n > 0 {
			k := min(n, len(chunk))
			if _, err := conn.Write(chunk[:k]); err != nil {
				errc <- err
				return
			}
			n -= k
		}
		errc <- nil
	}()
	return errc
}

// TestHugeLineNoNewline: a client streams a 16 MiB line and never ends
// it. The server refuses it as soon as it overflows the read buffer,
// reads the rest into that one buffer, and Close still returns at once.
func TestHugeLineNoNewline(t *testing.T) {
	s, reg := echoServer(2, 32)
	l := listenPipe(s)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	conn := l.dial()
	defer conn.Close()
	if err := <-writeRun(conn, 'x', 16<<20); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, "the line-too-long refusal", func() bool { return refused(reg, "line_too_long") == 1 })
	heapBound(t, &before)
	closePromptly(t, s)
}

// TestOversizedLineThenRequest: after a line over MaxLine the connection
// stays open, and the next request is answered.
func TestOversizedLineThenRequest(t *testing.T) {
	for _, depth := range []int{1, 32} {
		s, reg := echoServer(2, depth)
		l := listenPipe(s)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		conn := l.dial()
		r := bufio.NewReader(conn)
		errc := writeRun(conn, 'x', 100<<10)
		if err := <-errc; err != nil {
			t.Fatalf("write: %v", err)
		}
		io.WriteString(conn, "\nPING\n")
		if got := readLine(t, r); got != "ERR line too long" {
			t.Fatalf("depth %d: oversized line -> %q", depth, got)
		}
		if got := readLine(t, r); got != "OK PING" {
			t.Fatalf("depth %d: request after it -> %q", depth, got)
		}
		if got := refused(reg, "line_too_long"); got != 1 {
			t.Errorf("depth %d: line_too_long refusals = %d, want 1", depth, got)
		}
		heapBound(t, &before)
		closePromptly(t, s)
		conn.Close()
	}
}

// halfConn is a half-closed connection: its reads play in and then end,
// while its writes still reach out, calling wrote first if set. Close
// signals done.
type halfConn struct {
	net.Conn // nil: only the methods below are called
	in       io.Reader
	out      bytes.Buffer
	wrote    func()
	done     chan struct{}
	once     sync.Once
}

func (c *halfConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *halfConn) Write(p []byte) (int, error) {
	if c.wrote != nil {
		c.wrote()
	}
	return c.out.Write(p)
}
func (c *halfConn) Close() error { c.once.Do(func() { close(c.done) }); return nil }

// TestHalfClosedConnection: a client that sends its requests and closes
// its write side still gets every reply, its unterminated last line
// included, and frees its slot.
func TestHalfClosedConnection(t *testing.T) {
	long := strings.Repeat("y", 70<<10)
	for _, tc := range []struct{ in, want string }{
		{"PING\n" + long + "\nPI", "OK PING\nERR line too long\nOK PI\n"},
		{"PING\n" + long, "OK PING\nERR line too long\n"},
	} {
		s, reg := echoServer(1, 32)
		l := listenPipe(s)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		c := &halfConn{in: strings.NewReader(tc.in), done: make(chan struct{})}
		l.conns <- c
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
			t.Fatal("server did not finish a half-closed connection")
		}
		if got := c.out.String(); got != tc.want {
			t.Errorf("replies = %.80q, want %.80q", got, tc.want)
		}
		if got := refused(reg, "line_too_long"); got != 1 {
			t.Errorf("line_too_long refusals = %d, want 1", got)
		}
		waitFor(t, "the slot to come free", func() bool { return len(s.slots) == 1 })
		heapBound(t, &before)
		closePromptly(t, s)
	}
}

// TestQuitFreesSlotBeforeBye: a QUIT's slot is back in the pool before
// its BYE is written, so a client that has read BYE and reconnects at
// once is never refused.
func TestQuitFreesSlotBeforeBye(t *testing.T) {
	s, reg := echoServer(1, 1)
	l := listenPipe(s)
	free := -1
	c := &halfConn{in: strings.NewReader("QUIT\n"), done: make(chan struct{})}
	c.wrote = func() { free = len(s.slots) }
	l.conns <- c
	<-c.done
	if c.out.String() != "BYE\n" || free != 1 {
		t.Errorf("QUIT -> %q with %d free slot(s) at the write, want BYE with 1", c.out.String(), free)
	}
	if got := reg.Snapshot().Gauges["t_connections"]; got != 0 {
		t.Errorf("t_connections = %d after QUIT, want 0", got)
	}
	closePromptly(t, s)
}

// TestClientNeverReads: a client that writes requests but never reads
// its replies stalls only its own connection. Accept still answers the
// next client at once (here with ERR busy, its one slot being held), and
// Close unblocks the stalled writer.
func TestClientNeverReads(t *testing.T) {
	s, reg := echoServer(1, 32)
	l := listenPipe(s)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	stalled := l.dial()
	defer stalled.Close()
	errc := make(chan error, 1)
	go func() {
		req := bytes.Repeat([]byte("PING\n"), 1<<10)
		for {
			if _, err := stalled.Write(req); err != nil {
				errc <- err
				return
			}
		}
	}()
	late := l.dial()
	defer late.Close()
	late.SetReadDeadline(time.Now().Add(5 * time.Second)) // a blocking accept fails, not hangs
	if got := readLine(t, bufio.NewReader(late)); got != "ERR busy" {
		t.Fatalf("second client -> %q, want ERR busy", got)
	}
	if got := refused(reg, "busy"); got != 1 {
		t.Errorf("busy refusals = %d, want 1", got)
	}
	heapBound(t, &before)
	closePromptly(t, s)
	stalled.Close()
	<-errc
}

// TestBeyondMaxClients: with every slot held, one more connection is
// refused with ERR busy and closed, the held ones keep working, and a
// QUIT frees a slot for the next client before its BYE arrives.
func TestBeyondMaxClients(t *testing.T) {
	const slots = 2
	s, reg := echoServer(slots, 1)
	l := listenPipe(s)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var held []net.Conn
	var readers []*bufio.Reader
	for i := 0; i < slots; i++ {
		c := l.dial()
		defer c.Close()
		held = append(held, c)
		readers = append(readers, bufio.NewReader(c))
		io.WriteString(c, "PING\n")
		if got := readLine(t, readers[i]); got != "OK PING" {
			t.Fatalf("client %d -> %q", i, got)
		}
	}
	extra := l.dial()
	extra.SetReadDeadline(time.Now().Add(5 * time.Second)) // a blocking accept fails, not hangs
	r := bufio.NewReader(extra)
	if got := readLine(t, r); got != "ERR busy" {
		t.Fatalf("client %d -> %q, want ERR busy", slots, got)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("refused connection left open: %v", err)
	}
	extra.Close()
	if got := refused(reg, "busy"); got != 1 {
		t.Errorf("busy refusals = %d, want 1", got)
	}
	io.WriteString(held[0], "QUIT\n")
	if got := readLine(t, readers[0]); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
	next := l.dial()
	defer next.Close()
	io.WriteString(next, "PING\n")
	if got := readLine(t, bufio.NewReader(next)); got != "OK PING" {
		t.Fatalf("client after a QUIT -> %q, want OK PING", got)
	}
	heapBound(t, &before)
	closePromptly(t, s)
}

// chunkConn delivers in in reads of the sizes chunks cycles through, and
// collects what is written.
type chunkConn struct {
	net.Conn // nil: Serve only calls Read and Write
	in       []byte
	chunks   []int
	k        int
	out      bytes.Buffer
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.in), c.chunks[c.k%len(c.chunks)])
	c.k++
	copy(p, c.in[:n])
	c.in = c.in[n:]
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// FuzzFrame: a byte stream delivered in arbitrary read chunks, served at
// any batch depth, yields exactly the lines and refusals of a reference
// that splits the stream at '\n' and refuses each line of MaxLine bytes
// or more, its '\n' not counted. In data, a 0 byte followed by k stands
// for a run of MaxLine-2+k%4 bytes, so lines land on both sides of the
// bound.
func FuzzFrame(f *testing.F) {
	f.Add([]byte("PUT a 1\nGET a\n\nLEN"), []byte{3}, uint8(1))
	f.Add([]byte("a\n\x00\x00\nb\n\x00\x01\nc\n\x00\x02\nd\n\x00\x03\ne"), []byte{255, 7}, uint8(32))
	f.Add([]byte("\x00\x03\x00\x03"), []byte{0}, uint8(4))
	f.Add([]byte("x\n\x00\x01"), []byte{200, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, data, chunks []byte, depth uint8) {
		var stream []byte
		for i := 0; i < len(data); i++ {
			if data[i] != 0 {
				stream = append(stream, data[i])
				continue
			}
			k := 0
			if i+1 < len(data) {
				i++
				k = int(data[i] % 4)
			}
			stream = append(stream, bytes.Repeat([]byte{'z'}, MaxLine-2+k)...)
		}
		var want strings.Builder
		wantRefused := 0
		segs := bytes.Split(stream, []byte{'\n'})
		if last := segs[len(segs)-1]; len(last) == 0 {
			segs = segs[:len(segs)-1]
		}
		for _, seg := range segs {
			if len(seg) >= MaxLine {
				wantRefused++
				want.WriteString(errLineTooLong)
				continue
			}
			want.WriteString("L ")
			want.Write(seg)
			want.WriteByte('\n')
		}

		sizes := []int{1}
		if len(chunks) > 0 {
			sizes = sizes[:0]
			for _, c := range chunks {
				sizes = append(sizes, 1+int(c)*int(c))
			}
		}
		c := &chunkConn{in: stream, chunks: sizes}
		s := New(obs.NewRegistry(), "t", 1, nil)
		w := bufio.NewWriter(c)
		s.Serve(0, c, w, int(depth%40), func(lines [][]byte) bool {
			for _, l := range lines {
				w.WriteString("L ")
				w.Write(l)
				w.WriteByte('\n')
			}
			return false
		})
		if got := c.out.String(); got != want.String() {
			t.Fatalf("served %.120q, want %.120q", got, want.String())
		}
		if got := s.tooLong.Total(); got != uint64(wantRefused) {
			t.Fatalf("line_too_long refusals = %d, want %d", got, wantRefused)
		}
	})
}
