package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/spool"
)

// fieldsPub is the PUB recognition parsePub replaces: split the trimmed
// line with strings.Fields, then match the verb and parse the payload.
func fieldsPub(raw string) (uint64, bool) {
	f := strings.Fields(strings.TrimSpace(raw))
	if len(f) != 2 || !strings.EqualFold(f[0], "PUB") {
		return 0, false
	}
	v, err := strconv.ParseUint(f[1], 10, 64)
	return v, err == nil
}

func TestParsePubMatchesFields(t *testing.T) {
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
		v, ok := parsePub(line)
		wv, wok := fieldsPub(line)
		if v != wv || ok != wok {
			t.Errorf("parsePub(%q) = (%d, %v), Fields path = (%d, %v)", line, v, ok, wv, wok)
		}
	}
}

// TestServeAllocsPerEvent serves a 32-PUB run, drains it into the spool and
// answers one 256-event POLL, and bounds the whole round at 0.1 allocations
// per published event. Line framing (reading the request strings) is left
// out: the lines are built before measuring. The responses must also stay
// byte-identical to the fmt-formatted protocol.
func TestServeAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}
	const run, window, warm, runs = 32, 256, 64, 200
	s := newServer(serverConfig{clients: 1, shards: 1, batch: run, spool: spool.Config{SegEvents: 256}})
	close(s.drainStop) // the test goroutine drives the drain itself
	s.drainWG.Wait()
	p := s.parts[0]
	var out bytes.Buffer
	ex := &executor{s: s, p: p, w: bufio.NewWriter(&out)}

	pubs := make([]string, run)
	for i := range pubs {
		pubs[i] = fmt.Sprintf("PUB %d\n", 1_000_000+i)
	}
	polls := make([][]string, warm+runs+1)
	for i := range polls {
		cursor := max(0, (i+1)*run-window)
		polls[i] = []string{fmt.Sprintf("POLL 0 %d %d\n", cursor, window)}
	}
	iter := 0
	round := func() {
		ex.run(pubs)
		for p.Drain(s.drainID, 128) > 0 {
		}
		ex.run(polls[iter])
		iter++
	}
	for iter < warm-1 {
		round()
	}
	ex.w.Flush()
	out.Reset()
	round()
	ex.w.Flush()
	if got, want := out.String(), fmtRound(p.Spool(), iter, run, window); got != want {
		t.Fatalf("responses differ from the fmt-formatted protocol:\ngot  %.200q\nwant %.200q", got, want)
	}
	ex.w = bufio.NewWriter(io.Discard)
	allocs := testing.AllocsPerRun(runs, round)
	t.Logf("%.1f allocs per round, %.3f per event", allocs, allocs/run)
	if allocs/run > 0.1 {
		t.Errorf("%.3f allocations per event, want <= 0.1", allocs/run)
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
