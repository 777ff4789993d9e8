package lineserver

import (
	"bufio"
	"bytes"
	"fmt"
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
		s.Serve(slot, conn, depth, echo)
	})
	return s, reg
}

// echo is the echo server's executor: it answers each line "OK <line>"
// and a QUIT line "BYE".
func echo(w *bufio.Writer) func([][]byte) bool {
	return func(lines [][]byte) bool {
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
	}
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
// collects what is written. It counts the Write calls and the reads that
// carried a complete line: one with a '\n', or the read that ends the
// input, which completes an unterminated last line.
type chunkConn struct {
	net.Conn  // nil: Serve only calls Read and Write
	in        []byte
	chunks    []int
	k         int
	out       bytes.Buffer
	writes    int
	lineReads int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		c.lineReads++
		return 0, io.EOF
	}
	n := min(len(p), len(c.in), c.chunks[c.k%len(c.chunks)])
	c.k++
	copy(p, c.in[:n])
	c.in = c.in[n:]
	if bytes.IndexByte(p[:n], '\n') >= 0 {
		c.lineReads++
	}
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}

// serveChunks serves in through the echo executor at depth, delivered in
// reads of the sizes chunks cycles through, and returns the conn and the
// server.
func serveChunks(in string, depth int, chunks ...int) (*chunkConn, *Server) {
	c := &chunkConn{in: []byte(in), chunks: chunks}
	s := New(obs.NewRegistry(), "t", 1, nil)
	s.Serve(0, c, depth, echo)
	return c, s
}

// echoed returns the echo executor's replies to n lines "PING <i>", and
// the lines themselves.
func echoed(n int) (in, out string) {
	var b, r strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "PING %d\n", i)
		fmt.Fprintf(&r, "OK PING %d\n", i)
	}
	return b.String(), r.String()
}

// TestBurstOneWrite: a 64-line burst that arrives in one read is answered
// in exactly one Write at every depth, and each read of a stream gets its
// own Write, so replies are never held back past the read that carried
// their requests. reply_writes_total counts the same Writes.
func TestBurstOneWrite(t *testing.T) {
	in, want := echoed(64)
	for _, reads := range []int{1, 3} {
		for _, depth := range []int{1, 32} {
			c, s := serveChunks(strings.Repeat(in, reads), depth, len(in))
			if got := c.out.String(); got != strings.Repeat(want, reads) {
				t.Fatalf("depth %d: replies = %.80q", depth, got)
			}
			if c.writes != reads {
				t.Errorf("depth %d: %d reads of 64 lines answered in %d Writes, want %d", depth, reads, c.writes, reads)
			}
			if got := s.writes.Total(); got != uint64(c.writes) {
				t.Errorf("depth %d: reply_writes_total = %d, want %d", depth, got, c.writes)
			}
		}
	}
}

// TestLoneRequestOwnWrite: requests that arrive one per read are each
// answered in a Write of their own.
func TestLoneRequestOwnWrite(t *testing.T) {
	for _, depth := range []int{1, 32} {
		c, _ := serveChunks("PING\nPING\nPING\n", depth, len("PING\n"))
		if c.out.String() != "OK PING\nOK PING\nOK PING\n" || c.writes != 3 {
			t.Errorf("depth %d: 3 lone requests -> %q in %d Writes, want 3", depth, c.out.String(), c.writes)
		}
	}
}

// TestPartialLineNotHeldBack: a trailing partial line that is never
// completed does not hold back the reply to the line before it.
func TestPartialLineNotHeldBack(t *testing.T) {
	for _, depth := range []int{1, 32} {
		s, _ := echoServer(1, depth)
		l := listenPipe(s)
		conn := l.dial()
		conn.SetDeadline(time.Now().Add(5 * time.Second)) // a held reply fails, not hangs
		io.WriteString(conn, "PUT a 1\nPUT b")
		if got := readLine(t, bufio.NewReader(conn)); got != "OK PUT a 1" {
			t.Fatalf("depth %d: first line -> %q", depth, got)
		}
		closePromptly(t, s)
		conn.Close()
	}
}

// TestQuitMidRead: a QUIT in the middle of a read flushes the replies
// before it and its BYE in one Write, counted before the slot is
// released, and drops the lines after it.
func TestQuitMidRead(t *testing.T) {
	const in = "PING\nPING\nQUIT\nPING\n"
	for _, depth := range []int{1, 32} {
		c, s := serveChunks(in, depth, len(in))
		if c.out.String() != "OK PING\nOK PING\nBYE\n" || c.writes != 1 {
			t.Errorf("depth %d: %q -> %q in %d Writes, want the replies to the first three lines in 1", depth, in, c.out.String(), c.writes)
		}
		if got := s.writes.Total(); got != 1 {
			t.Errorf("depth %d: reply_writes_total = %d, want 1", depth, got)
		}
	}
}

// FuzzFrame: a byte stream delivered in arbitrary read chunks, served at
// any batch depth, yields exactly the lines and refusals of a reference
// that splits the stream at '\n' and refuses each line of MaxLine bytes
// or more, its '\n' not counted. The replies reach the conn in at most
// one Write per read that carried a complete line, plus one per full
// reply buffer. In data, a 0 byte followed by k stands for a run of
// MaxLine-2+k%4 bytes, so lines land on both sides of the bound.
func FuzzFrame(f *testing.F) {
	f.Add([]byte("PUT a 1\nGET a\n\nLEN"), []byte{3}, uint8(1))
	f.Add([]byte("a\n\x00\x00\nb\n\x00\x01\nc\n\x00\x02\nd\n\x00\x03\ne"), []byte{255, 7}, uint8(32))
	f.Add([]byte("\x00\x03\x00\x03"), []byte{0}, uint8(4))
	f.Add([]byte("x\n\x00\x01"), []byte{200, 1}, uint8(2))
	f.Add([]byte("a\nb\nc\nd\ne\nf\n"), []byte{255}, uint8(1))
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
		s.Serve(0, c, int(depth%40), func(w *bufio.Writer) func([][]byte) bool {
			return func(lines [][]byte) bool {
				for _, l := range lines {
					w.WriteString("L ")
					w.Write(l)
					w.WriteByte('\n')
				}
				return false
			}
		})
		if got := c.out.String(); got != want.String() {
			t.Fatalf("served %.120q, want %.120q", got, want.String())
		}
		if got := s.tooLong.Total(); got != uint64(wantRefused) {
			t.Fatalf("line_too_long refusals = %d, want %d", got, wantRefused)
		}
		if bound := c.lineReads + c.out.Len()/MaxLine; c.writes > bound {
			t.Fatalf("%d Writes, want at most %d (%d reads carried a complete line)", c.writes, bound, c.lineReads)
		}
		if got := s.writes.Total(); got != uint64(c.writes) {
			t.Fatalf("reply_writes_total = %d, want the %d Writes", got, c.writes)
		}
	})
}
