package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/spool"
)

// fieldsPub is the PUB recognition of a handler built on the strings
// package: split the line with strings.Fields, then match the verb and
// parse the payload.
func fieldsPub(raw string) (uint64, bool) {
	f := strings.Fields(raw)
	if len(f) != 2 || !strings.EqualFold(f[0], "PUB") {
		return 0, false
	}
	v, err := strconv.ParseUint(f[1], 10, 64)
	return v, err == nil
}

// TestPubMatchesFields runs each line through the ingest executor: it must
// publish exactly the lines, and the payloads, that fieldsPub accepts;
// any other non-blank line gets an ERR reply, a blank one none.
func TestPubMatchesFields(t *testing.T) {
	s := newServer(serverConfig{clients: 1, shards: 1, batch: 1, spool: spool.Config{SegEvents: 256}})
	close(s.drainStop) // the test goroutine drives the drain itself
	s.drainWG.Wait()
	var out bytes.Buffer
	ex := &executor{s: s, p: s.parts[0], w: bufio.NewWriter(&out)}
	var want []uint64
	for _, line := range []string{
		"PUB 7\n", "pub 7", "PUB\t7", "  PUB 7 ", "PUB 7\r\n", "Pub 007", "PUB\v7\f",
		"PUB 7 8", "PUB x", "PUB", "PUB ", "", "\n", "PUBX 7", "PU 7", "7 PUB",
		"PUB -1", "PUB +1", "PUB 18446744073709551615", "PUB 18446744073709551616",
		"PUB\u00a07",           // no-break space: Fields splits on it
		"\u2003PUB 7\u3000",    // em space, ideographic space
		"PUB\u00857",           // NEL is a space too
		"PUB 7\u00a08",         // a non-ASCII space makes a third field
		"PUB 7\x85",            // a lone continuation byte is not a space
		"\uff30\uff35\uff22 7", // fullwidth PUB does not fold to PUB
		"PUB 7\x00",
	} {
		out.Reset()
		ex.run([][]byte{[]byte(line)})
		ex.w.Flush()
		got := out.String()
		v, ok := fieldsPub(line)
		switch {
		case ok:
			want = append(want, v)
			if w := fmt.Sprintf("OK %d\n", len(want)); got != w {
				t.Errorf("%q -> %q, want %q", line, got, w)
			}
		case strings.TrimSpace(line) == "":
			if got != "" {
				t.Errorf("blank line %q -> %q, want no reply", line, got)
			}
		case !strings.HasPrefix(got, "ERR ") || strings.Count(got, "\n") != 1:
			t.Errorf("%q -> %q, want one ERR reply", line, got)
		}
	}
	for s.parts[0].Drain(s.drainID, 128) > 0 {
	}
	evs, _, _ := s.parts[0].Spool().Read(0, len(want)+1, nil)
	if len(evs) != len(want) {
		t.Fatalf("published %d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Payload != want[i] {
			t.Errorf("event %d payload = %d, want %d", i, ev.Payload, want[i])
		}
	}
}

// memConn is an in-memory connection playing a scripted client: each Read
// hands out the next request chunk that script returns (io.EOF once it
// returns nil), and Write appends to out, or discards while out is nil.
type memConn struct {
	net.Conn // nil: serveConn only calls Read and Write
	script   func() []byte
	out      *bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error) {
	b := c.script()
	if b == nil {
		return 0, io.EOF
	}
	return copy(p, b), nil
}

func (c *memConn) Write(p []byte) (int, error) {
	if c.out != nil {
		c.out.Write(p)
	}
	return len(p), nil
}

// TestServeAllocsPerEvent serves rounds of a 32-PUB run, a drain into the
// spool and one 256-event POLL through serveConn, line framing included,
// and bounds each round at 0.1 allocations per published event. The
// responses must also stay byte-identical to the fmt-formatted protocol.
func TestServeAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}
	const run, window, warm, short, long = 32, 256, 64, 50, 250
	s := newServer(serverConfig{clients: 1, shards: 1, batch: run, spool: spool.Config{SegEvents: 256}})
	close(s.drainStop) // the test goroutine drives the drain itself
	s.drainWG.Wait()
	p := s.parts[0]

	var pubs []byte
	for i := 0; i < run; i++ {
		pubs = fmt.Appendf(pubs, "PUB %d\n", 1_000_000+i)
	}
	total := warm + 1 + short + long
	polls := make([][]byte, total)
	for i := range polls {
		polls[i] = fmt.Appendf(nil, "POLL 0 %d %d\n", max(0, (i+1)*run-window), window)
	}
	iter := 0 // rounds completed, over all connections
	// serve runs rounds rounds on one connection and returns its mallocs.
	serve := func(rounds int, out *bytes.Buffer) uint64 {
		step, end := 0, iter+rounds
		c := &memConn{out: out, script: func() []byte {
			if iter == end {
				return nil
			}
			step++
			if step%2 == 1 {
				return pubs
			}
			for p.Drain(s.drainID, 128) > 0 {
			}
			iter++
			return polls[iter-1]
		}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.serveConn(0, c)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	serve(warm, nil)
	var out bytes.Buffer
	serve(1, &out)
	if got, want := out.String(), fmtRound(p.Spool(), iter, run, window); got != want {
		t.Fatalf("responses differ from the fmt-formatted protocol:\ngot  %.200q\nwant %.200q", got, want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := serve(short, nil)
	b := serve(long, nil)
	perEvent := (float64(b) - float64(a)) / float64((long-short)*run)
	t.Logf("%.3f allocs per event", perEvent)
	if perEvent > 0.1 {
		t.Errorf("%.3f allocations per event, want <= 0.1", perEvent)
	}
}

// fmtRound formats round iter's responses the way the fmt-based server
// wrote them: one OK per PUB, then the POLL's EVT lines and END.
func fmtRound(sp *spool.Spool[spool.Event], iter, run, window int) string {
	var b strings.Builder
	for i := 0; i < run; i++ {
		fmt.Fprintf(&b, "OK %d\n", (iter-1)*run+i+1)
	}
	cursor := uint64(max(0, iter*run-window))
	evs, next, skipped := sp.Snapshot().Read(cursor, window, nil)
	off := next - uint64(len(evs))
	for i, ev := range evs {
		fmt.Fprintf(&b, "EVT %d %d %d %d\n", off+uint64(i), ev.Producer, ev.Seq, ev.Payload)
	}
	fmt.Fprintf(&b, "END %d %d\n", next, skipped)
	return b.String()
}

// TestRefusals: a connection beyond -clients gets ERR busy, a line over
// 64 KiB gets ERR line too long on a connection that stays open, and
// each refusal is counted once.
func TestRefusals(t *testing.T) {
	d, err := start("127.0.0.1:0", "", serverConfig{clients: 1, shards: 1, batch: 8,
		spool: spool.Config{SegEvents: 16}}, 0)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()
	c, err := dial(d.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.conn.Close()
	fmt.Fprintf(c.w, "PUB %s\nPUB 7\n", strings.Repeat("1", 70<<10))
	c.w.Flush()
	for _, want := range []string{"ERR line too long", "OK 1"} {
		if got, err := c.readLine(); err != nil || got != want {
			t.Fatalf("reply = %q, %v; want %q", got, err, want)
		}
	}
	extra, err := dial(d.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer extra.conn.Close()
	if got, err := extra.readLine(); err != nil || got != "ERR busy" {
		t.Fatalf("connection beyond -clients -> %q, %v; want ERR busy", got, err)
	}
	counters := d.srv.Registry().Snapshot().Counters
	for _, reason := range []string{"busy", "line_too_long"} {
		if got := counters[`ingest_refused_total{reason="`+reason+`"}`]; got != 1 {
			t.Errorf("ingest_refused_total{reason=%q} = %d, want 1", reason, got)
		}
	}
}
