package main

import (
	"bufio"
	"bytes"
	"net"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// streamLines renders the first n requests of a connection's stream.
func streamLines(w *workload, seed uint64, conn, n int) string {
	s := newKVStream(w, seed, conn)
	var b []byte
	for range n {
		b, _ = s.request(b, 0)
	}
	return string(b)
}

func TestScheduleIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		if w.daemon != "simkvd" {
			continue
		}
		n := w.keys + 2000 // the preload, then the measured ops
		a, b := streamLines(w, 7, 0, n), streamLines(w, 7, 0, n)
		if a != b {
			t.Errorf("%s: same seed gave different streams", w.name)
		}
		if a == streamLines(w, 8, 0, n) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if a == streamLines(w, 7, 1, n) {
			t.Errorf("%s: connections 0 and 1 gave the same stream", w.name)
		}
	}
}

// stallServer answers ECHO lines like the host-baseline echo server but
// sleeps once, before answering line number stallAt.
func stallServer(t *testing.T, stallAt int, stall time.Duration) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r := bufio.NewReader(c)
		for i := 1; ; i++ {
			line, err := r.ReadBytes('\n')
			if err != nil {
				return
			}
			if i == stallAt {
				time.Sleep(stall)
			}
			if _, err := c.Write(line); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

func TestOpenLoopChargesStallToTail(t *testing.T) {
	addr, stop := stallServer(t, 500, 50*time.Millisecond)
	defer stop()
	c, err := dial(addr, &echoStream{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	// 2000 requests over a second: the stall holds back the ~100 requests
	// due during it, so at least the slowest 2% wait 25 ms or more.
	res, err := openLoop([]*client{c}, 2000, time.Second, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.bad != 0 || res.ok < 1900 {
		t.Fatalf("ok=%d bad=%d, want ~2000 correct echoes", res.ok, res.bad)
	}
	q, err := quantilesAt(res.lat, 0.50, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	p50, p99 := q[0], q[1]
	if p99 < 25000 {
		t.Errorf("p99 = %.0f us; a 50 ms stall must show in the p99 when latency runs from the due time", p99)
	}
	if p50 > 10000 {
		t.Errorf("p50 = %.0f us; the stall should not reach the median", p50)
	}
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {19, 0.50, false}, {20, 0.50, true}, {0, 0.50, false},
	} {
		v, err := quantile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("quantile(n=%d, q=%g): err=%v, want ok=%v", tc.n, tc.q, err, tc.ok)
			continue
		}
		if tc.ok {
			beyond := tc.n - int(v)
			if beyond < 10 {
				t.Errorf("quantile(n=%d, q=%g) = %g leaves %d samples beyond", tc.n, tc.q, v, beyond)
			}
		}
	}
}

func TestLeastStolenKeepsTies(t *testing.T) {
	ws := make([]measured, 50)
	if got := len(leastStolen(ws)); got != 50 {
		t.Errorf("no steal anywhere: kept %d of 50 windows, want all", got)
	}
	for i := range ws {
		ws[i].steal = float64(i) / 100
	}
	if got := len(leastStolen(ws)); got != 10 {
		t.Errorf("distinct steal: kept %d of 50 windows, want the least-stolen 10", got)
	}
}

func TestLayerOfGroupsSelfTimeByModule(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "repro/internal/simmap.putKey[go.shape.string,go.shape.uint64]", "repro/internal/simmap.(*Map[go.shape.string,go.shape.uint64]).Put"}, "simmap"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write"}, "net"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "runtime.mallocgc", "fmt.Sprintf"}, "gc"},
		{[]string{"runtime.mallocgc", "fmt.Sprintf", "repro/internal/kvserver.(*Server).handle"}, "kvserver"},
		{[]string{"strconv.ParseUint", "main.(*executor).run"}, "kvserver"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, "runtime"},
		{[]string{"runtime.epollwait", "runtime.netpoll", "runtime.findRunnable"}, "net"},
		{[]string{"sync/atomic.(*Pointer[...]).CompareAndSwap", "repro/internal/core.(*PSim[...]).apply"}, "core"},
		{[]string{"repro/internal/queue.(*SimQueue[...]).EnqueueBatch"}, "queue"},
		{[]string{"repro/internal/obs/timeline.(*Timeline).scrape"}, "obs"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.frames[0], got, tc.want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample with value %d", s.value)
		}
		found = found || slices.ContainsFunc(s.frames, func(f string) bool { return strings.HasSuffix(f, ".spinForProfile") })
	}
	if !found {
		t.Errorf("no sample of %d has spinForProfile on its stack", len(samples))
	}
	// The spin runs in package main (grouped with the server loop) and in
	// package time (other).
	if sh := layerShares(samples); sh["kvserver"]+sh["other"] < 0.5 {
		t.Errorf("layer shares %v: the spin should dominate", sh)
	}
}

func TestGCStats(t *testing.T) {
	lines := []string{
		"gc 41 @0.952s 1%: 0.037+0.47+0.004 ms clock, 0.075+0.12/0.36/0.10+0.008 ms cpu, 5->5->2 MB, 6 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"gc 42 @0.979s 1%: 0.089+0.36+0.004 ms clock, 0.17+0.26/0.30/0.006+0.008 ms cpu, 28->29->17 MB, 30 MB goal, 0 MB stacks, 0 MB globals, 2 P",
	}
	cpu, peak := gcStats(lines)
	if want := 0.075 + 0.12 + 0.36 + 0.10 + 0.008 + 0.17 + 0.26 + 0.30 + 0.006 + 0.008; cpu < want-1e-9 || cpu > want+1e-9 {
		t.Errorf("gc cpu = %g ms, want %g", cpu, want)
	}
	if peak != 28 {
		t.Errorf("heap peak = %g MB, want 28", peak)
	}
}
