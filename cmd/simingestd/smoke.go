package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runSmoke is the -smoke N mode: boot the daemon on a loopback port, publish
// n events from pipelined producer connections, poll every partition with a
// concurrent consumer, and verify the end-to-end invariants the pipeline
// promises:
//
//   - per-producer sequence stamps are 1,2,3,… with no gap or repeat;
//   - POLL cursors are monotone: the batch starts at or after the cursor,
//     offsets are contiguous, and next == cursor + skipped + returned;
//   - per-producer sequence numbers are strictly increasing across polls;
//   - every published event is either observed or accounted for by a
//     retention skip: sum(observed + skipped) == n;
//   - retention moved the high-watermark (HWM low > 0) on every partition.
//
// The retention policy must be aggressive enough to fire mid-run; when the
// flags left it empty, MaxEvents defaults to max(1024, n/8).
func runSmoke(n int, cfg serverConfig) error {
	const producers = 4
	if cfg.clients < producers+cfg.shards+1 {
		cfg.clients = producers + cfg.shards + 1
	}
	if cfg.policy.MaxAge == 0 && cfg.policy.MaxSegments == 0 && cfg.policy.MaxEvents == 0 {
		cfg.policy.MaxEvents = n / 8
		if cfg.policy.MaxEvents < 1024 {
			cfg.policy.MaxEvents = 1024
		}
	}
	if cfg.retainTick > 10*time.Millisecond {
		cfg.retainTick = 10 * time.Millisecond
	}

	srv := newServer(cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	defer srv.Close()
	shards := len(srv.parts)
	fmt.Printf("smoke: daemon on %s — %d events, %d producers, %d partition(s), batch %d, retention %+v\n",
		addr, n, producers, shards, cfg.batch, cfg.policy)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     atomic.Bool // producers finished and spools drained
		observed atomic.Uint64
		skipped  atomic.Uint64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Producers: connection i publishes its share in pipelined PUB runs and
	// checks its own gapless sequence stream.
	for i := 0; i < producers; i++ {
		share := n / producers
		if i < n%producers {
			share++
		}
		wg.Add(1)
		go func(i, share int) {
			defer wg.Done()
			if err := produce(addr, i, share); err != nil {
				fail(fmt.Errorf("producer %d: %w", i, err))
			}
		}(i, share)
	}

	// Consumers: one per partition, polling concurrently with the producers
	// and then catching up to the final high-watermark.
	for part := 0; part < shards; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			obs, skip, err := consume(addr, part, &done)
			observed.Add(obs)
			skipped.Add(skip)
			if err != nil {
				fail(fmt.Errorf("consumer part %d: %w", part, err))
			}
		}(part)
	}

	// Control connection: wait for the drain loops to move everything into
	// the spools, then release the consumers.
	ctl, err := dial(addr)
	if err != nil {
		fail(err)
	} else {
		defer ctl.close()
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, _, err := ctl.stats()
			if err != nil {
				fail(fmt.Errorf("control: %w", err))
				break
			}
			if st["appended"] == uint64(n) && st["drained"] == uint64(n) {
				break
			}
			if time.Now().After(deadline) {
				fail(fmt.Errorf("drain stalled: appended=%d drained=%d want %d",
					st["appended"], st["drained"], n))
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	done.Store(true)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	// Conservation: every event was observed or counted as skipped.
	if got := observed.Load() + skipped.Load(); got != uint64(n) {
		return fmt.Errorf("event conservation: observed %d + skipped %d = %d, want %d",
			observed.Load(), skipped.Load(), got, n)
	}

	// Retention high-watermark: a partition that filled past the policy
	// bound (by at least one sealable segment) must have expired something.
	// A lighter partition legitimately keeps low == 0 — connections map to
	// partitions by accept-order slot, so producer shares can be uneven —
	// but pigeonhole guarantees the heaviest partition exceeds the bound.
	// The runner ticks on its own clock, so allow it a moment.
	seg := cfg.spool.SegEvents
	if seg <= 0 {
		seg = 256 // spool.Config default
	}
	mustMove := func(end uint64) bool {
		return end > uint64(cfg.policy.MaxEvents)+uint64(seg)
	}
	lows := make([]uint64, shards)
	deadline := time.Now().Add(5 * time.Second)
	for {
		allMoved := true
		for part := 0; part < shards; part++ {
			low, end, err := ctl.hwm(part)
			if err != nil {
				return fmt.Errorf("control: %w", err)
			}
			if low > end {
				return fmt.Errorf("partition %d: low-watermark %d above end %d", part, low, end)
			}
			lows[part] = low
			if low == 0 && mustMove(end) {
				allMoved = false
			}
		}
		if allMoved || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	moved := 0
	for part, low := range lows {
		if low > 0 {
			moved++
			continue
		}
		_, end, err := ctl.hwm(part)
		if err != nil {
			return fmt.Errorf("control: %w", err)
		}
		if mustMove(end) {
			return fmt.Errorf("partition %d: retention never advanced the high-watermark (end %d, low still 0)", part, end)
		}
	}
	if moved == 0 {
		return fmt.Errorf("retention advanced no partition (lows %v)", lows)
	}

	// A light partition can finish before its runner's first tick, so run
	// one pass per partition here: the passes check below then never depends
	// on the wall clock. The loop is stopped first — a runner's process id
	// must keep a single driving goroutine.
	for _, r := range srv.runners {
		if r != nil {
			r.Stop()
			r.Pass()
		}
	}

	// Per-partition STATS lines must agree with the aggregate terminator
	// and with the consumers' own skip accounting: POLL-skip counters sum to
	// what consumers saw.
	agg, parts, err := ctl.stats()
	if err != nil {
		return fmt.Errorf("control: %w", err)
	}
	if len(parts) != shards {
		return fmt.Errorf("STATS returned %d PART lines, want %d", len(parts), shards)
	}
	var sumEnd, sumLow, sumSkipped uint64
	for i, p := range parts {
		if p["passes"] == 0 {
			return fmt.Errorf("partition %d: no retention passes recorded", i)
		}
		sumEnd += p["end"]
		sumLow += p["low"]
		sumSkipped += p["skipped"]
	}
	if sumEnd != agg["end"] || sumLow != agg["low"] {
		return fmt.Errorf("PART sums (low=%d end=%d) disagree with STATS (low=%d end=%d)",
			sumLow, sumEnd, agg["low"], agg["end"])
	}
	if sumSkipped != skipped.Load() {
		return fmt.Errorf("poll-skip counters sum to %d, consumers observed %d", sumSkipped, skipped.Load())
	}

	fmt.Printf("smoke: OK — %d observed + %d retention-skipped = %d events; low-watermarks %v\n",
		observed.Load(), skipped.Load(), n, lows)
	return nil
}

// produce publishes share events over one connection in pipelined runs of 32
// PUB lines, verifying the per-producer sequence stamps come back gapless.
func produce(addr string, id, share int) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	const run = 32
	var seq uint64
	for sent := 0; sent < share; {
		b := run
		if rem := share - sent; rem < b {
			b = rem
		}
		for j := 0; j < b; j++ {
			payload := uint64(id)<<32 | uint64(sent+j+1)
			fmt.Fprintf(c.w, "PUB %d\n", payload)
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		for j := 0; j < b; j++ {
			line, err := c.readLine()
			if err != nil {
				return err
			}
			got, ok := strings.CutPrefix(line, "OK ")
			if !ok {
				return fmt.Errorf("want OK <seq>, got %q", line)
			}
			q, err := strconv.ParseUint(got, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seq in %q: %w", line, err)
			}
			if q != seq+1 {
				return fmt.Errorf("sequence gap: got %d after %d", q, seq)
			}
			seq = q
		}
		sent += b
	}
	return nil
}

// consume polls partition part until the producers are done and the cursor
// has caught the high-watermark, checking cursor monotonicity and
// per-producer ordering along the way. It returns how many events it saw and
// how many retention skipped under it.
func consume(addr string, part int, done *atomic.Bool) (observed, skipped uint64, err error) {
	c, err := dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	var cursor uint64
	lastSeq := map[uint64]uint64{} // producer pid -> last seq seen
	for {
		evs, next, skip, err := c.poll(part, cursor, 256)
		if err != nil {
			return observed, skipped, err
		}
		if next < cursor {
			return observed, skipped, fmt.Errorf("cursor went backwards: %d -> %d", cursor, next)
		}
		if next != cursor+skip+uint64(len(evs)) {
			return observed, skipped, fmt.Errorf(
				"cursor accounting: cursor %d + skipped %d + %d events != next %d",
				cursor, skip, len(evs), next)
		}
		start := next - uint64(len(evs))
		if start < cursor {
			return observed, skipped, fmt.Errorf("batch starts at %d, before cursor %d", start, cursor)
		}
		for i, ev := range evs {
			if ev.Off != start+uint64(i) {
				return observed, skipped, fmt.Errorf("offset gap: event %d at offset %d, want %d",
					i, ev.Off, start+uint64(i))
			}
			if last := lastSeq[ev.Producer]; ev.Seq <= last {
				return observed, skipped, fmt.Errorf(
					"producer %d sequence not increasing: %d after %d", ev.Producer, ev.Seq, last)
			}
			lastSeq[ev.Producer] = ev.Seq
		}
		observed += uint64(len(evs))
		skipped += skip
		cursor = next
		if len(evs) == 0 {
			if done.Load() {
				_, end, err := c.hwm(part)
				if err != nil {
					return observed, skipped, err
				}
				if cursor >= end {
					return observed, skipped, nil
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
}

// client is a line-oriented connection to the daemon.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

func (c *client) close() {
	fmt.Fprintln(c.w, "QUIT")
	c.w.Flush()
	c.conn.Close()
}

func (c *client) readLine() (string, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(string(line), "\r\n"), nil
}

// smokeEvent is one EVT line.
type smokeEvent struct {
	Off, Producer, Seq, Payload uint64
}

// poll issues POLL <part> <cursor> <max> and parses the EVT/END response.
func (c *client) poll(part int, cursor uint64, max int) (evs []smokeEvent, next, skipped uint64, err error) {
	fmt.Fprintf(c.w, "POLL %d %d %d\n", part, cursor, max)
	if err = c.w.Flush(); err != nil {
		return nil, 0, 0, err
	}
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, 0, 0, err
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 5 && fields[0] == "EVT":
			var ev smokeEvent
			ev.Off, _ = strconv.ParseUint(fields[1], 10, 64)
			ev.Producer, _ = strconv.ParseUint(fields[2], 10, 64)
			ev.Seq, _ = strconv.ParseUint(fields[3], 10, 64)
			ev.Payload, _ = strconv.ParseUint(fields[4], 10, 64)
			evs = append(evs, ev)
		case len(fields) == 3 && fields[0] == "END":
			next, _ = strconv.ParseUint(fields[1], 10, 64)
			skipped, _ = strconv.ParseUint(fields[2], 10, 64)
			return evs, next, skipped, nil
		default:
			return nil, 0, 0, fmt.Errorf("unexpected POLL response %q", line)
		}
	}
}

// hwm issues HWM <part> and parses HWM <low> <end>.
func (c *client) hwm(part int) (low, end uint64, err error) {
	fmt.Fprintf(c.w, "HWM %d\n", part)
	if err = c.w.Flush(); err != nil {
		return 0, 0, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, 0, err
	}
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "HWM" {
		return 0, 0, fmt.Errorf("unexpected HWM response %q", line)
	}
	low, _ = strconv.ParseUint(fields[1], 10, 64)
	end, _ = strconv.ParseUint(fields[2], 10, 64)
	return low, end, nil
}

// stats issues STATS and parses the response: PART key=value lines (one
// per partition, in partition order) terminated by the aggregate STATS
// line.
func (c *client) stats() (map[string]uint64, []map[string]uint64, error) {
	fmt.Fprintln(c.w, "STATS")
	if err := c.w.Flush(); err != nil {
		return nil, nil, err
	}
	var parts []map[string]uint64
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, nil, err
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil, nil, fmt.Errorf("empty STATS response line")
		}
		kvs := fields[1:]
		if fields[0] == "PART" {
			if len(fields) < 2 || fields[1] != strconv.Itoa(len(parts)) {
				return nil, nil, fmt.Errorf("PART lines out of order: %q", line)
			}
			kvs = fields[2:]
		} else if fields[0] != "STATS" {
			return nil, nil, fmt.Errorf("unexpected STATS response %q", line)
		}
		out := map[string]uint64{}
		for _, kv := range kvs {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			out[k], _ = strconv.ParseUint(v, 10, 64)
		}
		if fields[0] == "PART" {
			parts = append(parts, out)
			continue
		}
		return out, parts, nil
	}
}
