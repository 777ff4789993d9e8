package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a running simkvd or simingestd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // protocol listener
	metrics string // /metrics and /debug listener
	done    chan struct{}

	mu sync.Mutex
	gc []gcLine // gctrace lines read from stderr
}

// gcLine is one GODEBUG=gctrace=1 line with its arrival time.
type gcLine struct {
	at   time.Time
	text string
}

// startDaemon execs the workload's daemon on loopback ports chosen by the
// kernel and returns once both listeners are accepting.
func startDaemon(bin string, w *workload, gctrace bool) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, w.flags...)
	cmd := exec.Command(filepath.Join(bin, w.daemon), args...)
	// Two procs, as on the 2-vCPU host the rates were fixed on.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", w.daemon, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	// The first of "both addresses read" or "stdout closed" decides start-up.
	ready := make(chan error, 1)
	signal := func(err error) {
		select {
		case ready <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stdout)
		var addr, metrics string
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, " listening on "); ok {
				addr, _, _ = strings.Cut(a, " ")
			}
			if _, a, ok := strings.Cut(line, " metrics on http://"); ok {
				metrics = strings.TrimSuffix(a, "/metrics")
				d.addr, d.metrics = addr, metrics
				signal(nil)
			}
		}
		signal(fmt.Errorf("%s exited before listening", w.daemon))
	}()
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "gc ") {
				d.mu.Lock()
				d.gc = append(d.gc, gcLine{at: time.Now(), text: line})
				d.mu.Unlock()
			} else {
				fmt.Fprintf(os.Stderr, "%s: %s\n", w.daemon, line)
			}
		}
	}()
	go func() {
		wg.Wait()
		cmd.Wait()
		close(d.done)
	}()
	select {
	case err = <-ready:
	case <-time.After(10 * time.Second):
		err = fmt.Errorf("%s did not listen within 10s", w.daemon)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop interrupts the daemon, kills it if it has not exited within five
// seconds, and waits for it.
func (d *daemon) stop() {
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// cpuTicks returns the daemon's user+system CPU time in clock ticks
// (1/100 s) from /proc/<pid>/stat.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return u + s, nil
}

const ticksPerSecond = 100

// peakRSSMB returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// snapshot is the daemon's /metrics?format=json document.
type snapshot struct {
	Counters   map[string]float64 `json:"counters"`
	Histograms map[string]struct {
		Buckets map[string]uint64 `json:"buckets"`
	} `json:"histograms"`
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + d.metrics + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (d *daemon) scrape() (*snapshot, error) {
	b, err := d.get("/metrics?format=json")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	var s snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("decode metrics: %w", err)
	}
	return &s, nil
}

// gcLines returns the gctrace lines that arrived in [from, to).
func (d *daemon) gcLines(from, to time.Time) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, g := range d.gc {
		if !g.at.Before(from) && g.at.Before(to) {
			out = append(out, g.text)
		}
	}
	return out
}

// gcStats sums gctrace lines: the CPU milliseconds each cycle spent (the
// "a+b/c/d+e ms cpu" field) and the largest heap size at a cycle start.
func gcStats(lines []string) (cpuMs, heapPeakMB float64) {
	for _, l := range lines {
		if _, rest, ok := strings.Cut(l, " ms clock, "); ok {
			cpu, _, _ := strings.Cut(rest, " ms cpu")
			for _, f := range strings.FieldsFunc(cpu, func(r rune) bool { return r == '+' || r == '/' }) {
				v, _ := strconv.ParseFloat(f, 64)
				cpuMs += v
			}
			if _, heap, ok := strings.Cut(rest, " ms cpu, "); ok {
				start, _, _ := strings.Cut(heap, "->")
				v, _ := strconv.ParseFloat(start, 64)
				heapPeakMB = max(heapPeakMB, v)
			}
		}
	}
	return cpuMs, heapPeakMB
}
