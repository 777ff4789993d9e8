package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// client is one load-generator connection and its request stream.
type client struct {
	c     net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	p     proto
	burst int
	buf   []byte
	exp   []expect
	gate  func() // closed loop: called before each burst (ingest flow control)
}

func dial(addr string, p proto, burst int) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10), p: p, burst: burst}, nil
}

func (c *client) close() { c.c.Close() }

// tally is what a load phase observed.
type tally struct {
	lat     []int64 // per-request latency, ns (open loop: from the request's due time)
	lag     []int64 // open loop: per-burst send lateness, ns
	ok, bad int
	elapsed time.Duration
	spans   []span // traced closed loop: one span per burst round trip
}

func (t *tally) add(o tally) {
	t.lat = append(t.lat, o.lat...)
	t.lag = append(t.lag, o.lag...)
	t.ok += o.ok
	t.bad += o.bad
	t.spans = append(t.spans, o.spans...)
}

func (t *tally) attempted() int { return t.ok + t.bad }

// rate is completed requests per second.
func (t *tally) rate() float64 { return float64(t.ok+t.bad) / t.elapsed.Seconds() }

// sendBurst writes one burst of requests, stamping payloads with now.
func (c *client) sendBurst(now int64) error {
	c.buf, c.exp = c.buf[:0], c.exp[:0]
	for range c.burst {
		var e expect
		c.buf, e = c.p.request(c.buf, now)
		c.exp = append(c.exp, e)
	}
	_, err := c.w.Write(c.buf)
	return err
}

// roundTrip sends one burst and checks every response: the
// preload and the closed loop's unit of work.
func (c *client) roundTrip(epoch time.Time) (ok, bad int, err error) {
	if err = c.sendBurst(int64(time.Since(epoch))); err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		return 0, c.burst, err
	}
	for _, e := range c.exp {
		good, rerr := c.p.response(c.r, e)
		if rerr != nil {
			return ok, bad + len(c.exp) - ok - bad, rerr
		}
		if good {
			ok++
		} else {
			bad++
		}
	}
	return ok, bad, nil
}

// closedLoop runs every client for d, each sending its next burst as soon as
// the previous one is answered. With trace set it records a span per burst.
func closedLoop(cs []*client, d time.Duration, epoch time.Time, trace bool) (tally, error) {
	res := make([]tally, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.c.SetDeadline(end.Add(10 * time.Second))
			t := &res[i]
			for time.Now().Before(end) {
				if c.gate != nil {
					c.gate()
				}
				s := time.Now()
				ok, bad, err := c.roundTrip(epoch)
				now := time.Now()
				t.ok += ok
				t.bad += bad
				for range c.burst {
					t.lat = append(t.lat, int64(now.Sub(s)))
				}
				if trace {
					t.spans = append(t.spans, span{name: "wire.burst", start: int64(s.Sub(epoch)), end: int64(now.Sub(epoch)), parent: -1})
				}
				if err != nil {
					errs[i] = fmt.Errorf("closed loop: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var out tally
	for _, t := range res {
		out.add(t)
	}
	out.elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// pending is one sent request awaiting its response.
type pending struct {
	due int64 // ns since the phase start
	e   expect
}

// openLoop offers rate requests per second in total, split evenly over the
// clients, for d. Bursts fall due on a fixed schedule whether or not earlier
// ones were answered, and each request's latency runs from its due time, so
// a stalled server is charged for every request it delays (coordinated
// omission corrected). A timerfd paces the sends: Go's sleep granularity is
// about a millisecond on Linux, coarser than the send interval.
func openLoop(cs []*client, rate float64, d time.Duration, epoch time.Time) (tally, error) {
	res := make([]tally, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stagger the clients evenly across one send interval.
			offset := time.Duration(float64(i*c.burst) / rate * 1e9)
			res[i], errs[i] = c.openLoop(rate/float64(len(cs)), start, offset, d, epoch)
		}()
	}
	wg.Wait()
	var out tally
	for _, t := range res {
		out.add(t)
	}
	out.elapsed = d
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (c *client) openLoop(rate float64, start time.Time, offset, d time.Duration, epoch time.Time) (tally, error) {
	interval := time.Duration(float64(c.burst) / rate * 1e9)
	n := int((d - offset) / interval)
	// Sized to the phase's request count, so the sender never blocks on a
	// slow receiver: an open loop keeps sending whatever the server does.
	pend := make(chan pending, n*c.burst+1)
	c.c.SetDeadline(start.Add(d + 10*time.Second))

	var rx tally
	var rxErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range pend {
			if rxErr != nil {
				rx.bad++
				continue
			}
			ok, err := c.p.response(c.r, p.e)
			if err != nil {
				rxErr = fmt.Errorf("open loop: %w", err)
				rx.bad++
				continue
			}
			rx.lat = append(rx.lat, int64(time.Since(start))-p.due)
			if ok {
				rx.ok++
			} else {
				rx.bad++
			}
		}
	}()

	pace, err := newPacer(time.Until(start.Add(offset+interval)), interval)
	if err != nil {
		close(pend)
		<-done
		return rx, err
	}
	defer pace.close()
	var lag []int64
	var txErr error
	for k := 0; k < n && txErr == nil; {
		ticks, err := pace.wait()
		if err != nil {
			txErr = err
			break
		}
		for ; k < n && uint64(k) < ticks && txErr == nil; k++ {
			due := offset + interval*time.Duration(k+1)
			now := time.Since(start)
			lag = append(lag, int64(now-due))
			txErr = c.sendBurst(int64(time.Since(epoch)))
			for _, e := range c.exp {
				pend <- pending{due: int64(due), e: e}
			}
		}
		if txErr == nil {
			txErr = c.w.Flush()
		}
	}
	close(pend)
	<-done
	rx.lag = lag
	if txErr != nil {
		return rx, fmt.Errorf("open loop send: %w", txErr)
	}
	return rx, rxErr
}

// pacer is a periodic Linux timerfd read through Go's netpoller, which
// wakes within tens of microseconds of each expiry.
type pacer struct {
	f     *os.File
	ticks uint64
}

func newPacer(first, every time.Duration) (*pacer, error) {
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	first = max(first, time.Microsecond)
	// struct itimerspec { it_interval, it_value }, each {sec, nsec}.
	spec := [4]int64{int64(every / time.Second), int64(every % time.Second), int64(first / time.Second), int64(first % time.Second)}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", e)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the next expiry and returns the expiries so far.
func (p *pacer) wait() (uint64, error) {
	var b [8]byte
	if _, err := p.f.Read(b[:]); err != nil {
		return p.ticks, fmt.Errorf("timerfd read: %w", err)
	}
	p.ticks += *(*uint64)(unsafe.Pointer(&b[0]))
	return p.ticks, nil
}

func (p *pacer) close() { p.f.Close() }

// quantile returns the q-quantile of sorted samples. It refuses a quantile
// with fewer than ten samples beyond it: such a tail is a handful of events,
// not a percentile.
func quantile(sorted []int64, q float64) (float64, error) {
	n := len(sorted)
	i := int(math.Ceil(q*float64(n))) - 1
	if n == 0 || n-1-i < 10 {
		return 0, fmt.Errorf("p%g of %d samples has fewer than 10 samples beyond it", q*100, n)
	}
	return float64(sorted[max(i, 0)]), nil
}

// quantilesAt sorts samples (ns) and returns the quantiles qs in µs.
func quantilesAt(samples []int64, qs ...float64) ([]float64, error) {
	s := slices.Clone(samples)
	slices.Sort(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, err := quantile(s, q)
		if err != nil {
			return nil, err
		}
		out[i] = v / 1e3
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
