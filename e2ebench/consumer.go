package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// consumer is the ingest workload's second connection: it loops
// "POLL 0 <cursor> 256" from the start of the session and checks what it
// reads. Offsets must be contiguous from the cursor (after any events
// retention skipped), each event at offset o must be the single producer's
// sequence number o+1, and its payload must be the one published with that
// sequence number, so every event is delivered exactly once. A poll that
// returns nothing waits 100 µs before the next.
type consumer struct {
	c     net.Conn
	r     *bufio.Reader
	sent  *sentLog
	epoch time.Time
	stop  chan struct{}
	done  chan struct{}

	timing atomic.Bool // record deliver latencies (the traced run's hi window)
	paused atomic.Bool // poll no more until cleared

	mu      sync.Mutex
	cursor  uint64  // next offset to read
	skipped uint64  // events retention expired before they were read
	seen    uint64  // events read
	bad     int     // wrong events
	lat     []int64 // deliver latency (ns) of events timed since the last take
	err     error
}

func startConsumer(addr string, sent *sentLog, epoch time.Time) (*consumer, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial consumer: %w", err)
	}
	k := &consumer{c: c, r: bufio.NewReaderSize(c, 64<<10), sent: sent, epoch: epoch,
		stop: make(chan struct{}), done: make(chan struct{})}
	go k.run()
	return k, nil
}

func (k *consumer) run() {
	defer close(k.done)
	pace, err := newPacer(100*time.Microsecond, 100*time.Microsecond)
	if err != nil {
		k.fail(err)
		return
	}
	defer pace.close()
	var req []byte
	for {
		select {
		case <-k.stop:
			return
		default:
		}
		if k.paused.Load() {
			if _, err := pace.wait(); err != nil {
				k.fail(err)
				return
			}
			continue
		}
		k.mu.Lock()
		cursor := k.cursor
		k.mu.Unlock()
		req = fmt.Appendf(req[:0], "POLL 0 %d 256\n", cursor)
		k.c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := k.c.Write(req); err != nil {
			k.fail(err)
			return
		}
		n, err := k.readPoll(cursor)
		if err != nil {
			k.fail(err)
			return
		}
		if n == 0 {
			if _, err := pace.wait(); err != nil {
				k.fail(err)
				return
			}
		}
	}
}

// readPoll reads one POLL response (EVT lines, then END) and checks it.
func (k *consumer) readPoll(cursor uint64) (int, error) {
	var lat []int64
	var first uint64
	bad, n := 0, 0
	timing := k.timing.Load()
	for {
		line, err := k.r.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		f := bytes.Fields(line)
		now := int64(time.Since(k.epoch))
		if len(f) == 3 && string(f[0]) == "END" {
			next, err1 := strconv.ParseUint(string(f[1]), 10, 64)
			skipped, err2 := strconv.ParseUint(string(f[2]), 10, 64)
			if err1 != nil || err2 != nil || next != cursor+skipped+uint64(n) || (n > 0 && first != cursor+skipped) {
				return 0, fmt.Errorf("bad POLL end %q after %d events from %d", line, n, cursor)
			}
			k.mu.Lock()
			k.cursor = next
			k.skipped += skipped
			k.seen += uint64(n)
			k.bad += bad
			k.lat = append(k.lat, lat...)
			k.mu.Unlock()
			return n, nil
		}
		if len(f) != 5 || string(f[0]) != "EVT" {
			return 0, fmt.Errorf("bad POLL line %q", line)
		}
		off, _ := strconv.ParseUint(string(f[1]), 10, 64)
		seq, _ := strconv.ParseUint(string(f[3]), 10, 64)
		pay, _ := strconv.ParseInt(string(f[4]), 10, 64)
		if n == 0 {
			first = off
		}
		want, published := k.sent.payload(seq)
		if !published || seq != off+1 || pay != want || off != first+uint64(n) {
			bad++
		}
		if timing {
			lat = append(lat, now-pay)
		}
		n++
	}
}

func (k *consumer) fail(err error) {
	k.mu.Lock()
	if k.err == nil && err != io.EOF {
		k.err = err
	}
	k.mu.Unlock()
}

// catchUp waits until the consumer has read past every published event.
func (k *consumer) catchUp(timeout time.Duration) error {
	end := time.Now().Add(timeout)
	for {
		k.mu.Lock()
		cursor, err := k.cursor, k.err
		k.mu.Unlock()
		if err != nil {
			return fmt.Errorf("consumer: %w", err)
		}
		if cursor >= k.sent.len() {
			return nil
		}
		if time.Now().After(end) {
			return fmt.Errorf("consumer stuck at offset %d of %d published", cursor, k.sent.len())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitLag waits while more than max published events are unread.
func (k *consumer) waitLag(max uint64) {
	for {
		k.mu.Lock()
		cursor, err := k.cursor, k.err
		k.mu.Unlock()
		if err != nil || k.sent.len() <= cursor+max {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// take returns the deliver latencies recorded since the last take.
func (k *consumer) take() []int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.lat
	k.lat = nil
	return l
}

// verdict reports wrong events, events skipped by retention, events never
// delivered, and events read.
func (k *consumer) verdict() (bad int, skipped, undelivered, seen uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if pub := k.sent.len(); pub > k.cursor {
		undelivered = pub - k.cursor
	}
	return k.bad, k.skipped, undelivered, k.seen
}

func (k *consumer) close() {
	close(k.stop)
	k.c.Close()
	<-k.done
}
