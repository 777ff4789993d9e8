// Package lineserver is the serving code of simkvd and simingestd: the
// client slot pool, a non-blocking accept, one bounded line framing, the
// loop that hands a connection's already-buffered lines to the daemon's
// executor in batches, the reply writer, connection tracking and Close,
// the request tokenizer (Fields, Command, ParseUint, LookupKey), and the
// operations surface both daemons run beside it (Start). A daemon supplies
// only what a batch of lines means, as a per-connection executor.
//
// Replies leave in one write per read: the reply writer is flushed only
// when no complete line is left in the read buffer, so a pipelined burst
// that arrives in one read is answered in one Write whatever the batch
// depth, and a lone request still gets its reply at once. The writes are
// counted per client slot in <prefix>_reply_writes_total.
//
// A slow or hostile client never blocks the others, and every refusal is
// visible:
//
//   - A connection beyond the slot count is answered "ERR busy", closed and
//     counted in <prefix>_refused_total{reason="busy"}. Accept never waits
//     for a slot.
//   - A line longer than MaxLine bytes, its '\n' included, is answered
//     "ERR line too long" in its place and counted in
//     <prefix>_refused_total{reason="line_too_long"}. The rest of the line
//     is read and discarded, so a client that never sends a newline costs
//     one MaxLine read buffer, and the connection stays open.
//
// Both rules apply to every connection, whatever batch depth it is served
// at; depth 1 is a batch of one line.
package lineserver

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// MaxLine is the longest request line the framing accepts, its '\n'
// included: each connection's read buffer holds exactly one such line. It
// also sizes each connection's reply writer, so the reply to a lone
// request, a value as long as the longest line included, or up to MaxLine
// bytes of a read's replies, leaves in a single Write.
const MaxLine = bufio.MaxScanTokenSize

const (
	errBusy        = "ERR busy\n"
	errLineTooLong = "ERR line too long\n"
)

// refuseTimeout bounds the write of a busy refusal. On TCP the reply fits
// a fresh socket's send buffer and never waits; on a synchronous
// in-memory conn it keeps a refused client that does not read from
// holding up accept for long.
const refuseTimeout = time.Second

// Server owns a daemon's listener, its client slots and its connections.
type Server struct {
	handler func(slot int, conn net.Conn)
	slots   chan int // free client slots

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]int // in-flight connection -> its slot, or -1 once released
	wg     sync.WaitGroup

	gConns  *obs.Gauge
	busy    *obs.Counter // one slot, written by accept
	tooLong *obs.Counter // per client slot
	writes  *obs.Counter // reply writes, per client slot
}

// New returns a server with the given number of client slots that serves
// each accepted connection by calling handler with the connection's slot;
// handler normally ends in Serve. The server registers
// <prefix>_connections, <prefix>_refused_total{reason=...} and
// <prefix>_reply_writes_total in reg.
func New(reg *obs.Registry, prefix string, slots int, handler func(slot int, conn net.Conn)) *Server {
	s := &Server{
		handler: handler,
		slots:   make(chan int, slots),
		conns:   map[net.Conn]int{},
		gConns:  reg.Gauge(prefix + "_connections"),
		busy:    reg.Counter(obs.Labeled(prefix+"_refused_total", "reason", "busy"), 1),
		tooLong: reg.Counter(obs.Labeled(prefix+"_refused_total", "reason", "line_too_long"), slots),
		writes:  reg.Counter(prefix+"_reply_writes_total", slots),
	}
	for i := 0; i < slots; i++ {
		s.slots <- i
	}
	return s
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Connections are served in background
// goroutines until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.serve(ln)
	return ln.Addr().String(), nil
}

// serve accepts connections on ln in the background until Close.
func (s *Server) serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.accept(ln)
}

func (s *Server) accept(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		var slot int
		select {
		case slot = <-s.slots:
		default:
			s.refuse(conn)
			continue
		}
		if !s.track(conn, slot) {
			s.slots <- slot
			conn.Close() // racing with Close: refuse
			continue
		}
		s.gConns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handler(slot, conn)
			s.release(conn)
			s.untrack(conn)
		}()
	}
}

// refuse answers a connection that found every slot busy, counts it and
// closes it.
func (s *Server) refuse(conn net.Conn) {
	s.busy.AddAtomic(0, 1)
	conn.SetWriteDeadline(time.Now().Add(refuseTimeout))
	io.WriteString(conn, errBusy)
	conn.Close()
}

// track registers an in-flight connection on slot; false if the server is
// closed.
func (s *Server) track(conn net.Conn, slot int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = slot
	return true
}

// release returns conn's slot to the pool. It does nothing for a
// connection whose slot is already released, or that was not accepted by
// this server (Serve driven directly).
func (s *Server) release(conn net.Conn) {
	s.mu.Lock()
	slot, ok := s.conns[conn]
	if ok {
		s.conns[conn] = -1
	}
	s.mu.Unlock()
	if ok && slot >= 0 {
		s.gConns.Add(-1)
		s.slots <- slot
	}
}

// untrack forgets conn and closes it.
func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// Close stops the listener, closes every in-flight connection (so a slow
// or idle client cannot stall shutdown or leak its goroutine), and waits
// for every connection's handler to return.
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

// Serve runs conn's request loop on slot. Each batch is the next line,
// waited for, plus up to depth-1 further complete lines already in the
// read buffer; a lone request is served at once. Serve hands executor the
// connection's reply writer once, and calls the run it returns on each
// batch; run writes the batch's replies to w. Lines reach run without
// their '\n' and alias the read buffer until run returns.
//
// w holds MaxLine bytes and is flushed only when no complete line is left
// in the read buffer, before a read that may block: the replies to every
// line one read delivered leave together, whatever the depth, and a
// partial trailing line never holds back the replies before it. Replies
// are held back for at most one read's worth of input.
//
// A line over MaxLine is answered "ERR line too long" in its place and
// counted. Serve returns when run reports a QUIT, the connection fails or
// its input ends, after flushing w. On a QUIT the slot is released before
// the final flush, so a client that has read the reply and reconnects
// finds it free.
func (s *Server) Serve(slot int, conn net.Conn, depth int, executor func(w *bufio.Writer) (run func(lines [][]byte) (quit bool))) {
	r := bufio.NewReaderSize(conn, MaxLine)
	out := &replyConn{conn: conn, writes: s.writes, slot: slot}
	w := bufio.NewWriterSize(out, MaxLine)
	run := executor(w)
	lines := make([][]byte, 0, max(depth, 1))
	for {
		lines = lines[:0]
		line, err := r.ReadSlice('\n')
		switch {
		case err == bufio.ErrBufferFull:
			s.tooLong.Inc(slot)
			w.WriteString(errLineTooLong)
			for err == bufio.ErrBufferFull {
				_, err = r.ReadSlice('\n')
			}
		case err == nil:
			lines = append(lines, line[:len(line)-1])
		case len(line) > 0:
			lines = append(lines, line) // the input's last line, unterminated
		}
		used, more := 0, false
		if err == nil {
			buf, _ := r.Peek(r.Buffered())
			for {
				i := bytes.IndexByte(buf[used:], '\n')
				if more = i >= 0; !more || len(lines) == cap(lines) {
					break
				}
				lines = append(lines, buf[used:used+i])
				used += i + 1
			}
		}
		quit := len(lines) > 0 && run(lines)
		r.Discard(used)
		if quit {
			// The final flush is one Write. Count it while the slot is
			// still ours: once released, its counter slot belongs to the
			// slot's next connection.
			if w.Buffered() > 0 {
				out.writes.Inc(slot)
			}
			out.writes = nil
			s.release(conn)
		}
		if quit || err != nil {
			w.Flush()
			return
		}
		if !more && w.Flush() != nil {
			return
		}
	}
}

// replyConn counts the writes that reach conn in slot's share of writes.
type replyConn struct {
	conn   io.Writer
	writes *obs.Counter // nil once the slot is released
	slot   int
}

func (c *replyConn) Write(p []byte) (int, error) {
	c.writes.Inc(c.slot)
	return c.conn.Write(p)
}
