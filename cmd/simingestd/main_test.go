package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/spool"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return string(body)
}

// waitEnd polls HWM until partition part's end reaches want (the drain loop
// moves queue batches into the spool asynchronously).
func waitEnd(t *testing.T, c *client, part int, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, end, err := c.hwm(part)
		if err != nil {
			t.Fatalf("HWM: %v", err)
		}
		if end >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition %d never drained to %d (end %d)", part, want, end)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDaemonEndToEnd boots the full daemon on ephemeral ports, exercises
// PUB/POLL/HWM/STATS/QUIT over TCP and /metrics over HTTP, and verifies a
// clean shutdown.
func TestDaemonEndToEnd(t *testing.T) {
	cfg := serverConfig{clients: 4, shards: 2, batch: 4,
		spool: spool.Config{SegEvents: 16}}
	d, err := start("127.0.0.1:0", "127.0.0.1:0", cfg, 0)
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	c, err := dial(d.addr) // first connection: slot 0 -> partition 0, pid 0
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.conn.Close()
	send := func(line string) string {
		fmt.Fprintln(c.w, line)
		if err := c.w.Flush(); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := c.readLine()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return resp
	}

	for i, want := range []string{"OK 1", "OK 2", "OK 3"} {
		if got := send(fmt.Sprintf("PUB %d", 100+i)); got != want {
			t.Fatalf("PUB -> %q, want %q", got, want)
		}
	}
	waitEnd(t, c, 0, 3)

	evs, next, skipped, err := c.poll(0, 0, 10)
	if err != nil {
		t.Fatalf("POLL: %v", err)
	}
	if len(evs) != 3 || next != 3 || skipped != 0 {
		t.Fatalf("POLL -> %d events next=%d skipped=%d, want 3/3/0", len(evs), next, skipped)
	}
	for i, ev := range evs {
		if ev.Off != uint64(i) || ev.Producer != 0 || ev.Seq != uint64(i+1) || ev.Payload != uint64(100+i) {
			t.Fatalf("event %d = %+v, want off=%d producer=0 seq=%d payload=%d",
				i, ev, i, i+1, 100+i)
		}
	}
	// Partition 1 saw nothing.
	if evs, next, _, _ := c.poll(1, 0, 10); len(evs) != 0 || next != 0 {
		t.Fatalf("partition 1 unexpectedly has events: %d, next %d", len(evs), next)
	}

	st, parts, err := c.stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if st["appended"] != 3 || st["drained"] != 3 || st["end"] != 3 {
		t.Fatalf("STATS = %v, want appended=3 drained=3 end=3", st)
	}
	if len(parts) != 2 || parts[0]["end"] != 3 || parts[1]["end"] != 0 {
		t.Fatalf("PART lines = %v, want partition 0 end=3, partition 1 end=0", parts)
	}
	if parts[0]["skipped"] != 0 || parts[0]["expired"] != 0 {
		t.Fatalf("PART 0 reports losses on a loss-free run: %v", parts[0])
	}

	for _, bad := range []string{"POLL 9 0 10", "POLL 0 0", "HWM 9", "NOPE"} {
		if got := send(bad); !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q -> %q, want ERR", bad, got)
		}
	}

	prom := httpGet(t, "http://"+d.metricsAddr()+"/metrics")
	for _, want := range []string{
		"# TYPE ingest_pub_total counter",
		"# TYPE ingest_connections gauge",
		"# TYPE ingest_reply_writes_total counter",
		`ingest_spool_ops_total{partition="0"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing %q:\n%.400s", want, prom)
		}
	}

	if got := send("QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}

	closed := make(chan error, 1)
	go func() { closed <- d.close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon close hung")
	}
	if _, err := net.Dial("tcp", d.addr); err == nil {
		t.Fatal("ingest port still accepting after close")
	}
}

// TestPipelinedPubRun queues a run of PUB lines in one write so the executor
// submits them as a single AppendBatch, and checks the responses are
// byte-identical to the one-at-a-time protocol.
func TestPipelinedPubRun(t *testing.T) {
	d, err := start("127.0.0.1:0", "", serverConfig{clients: 2, shards: 1, batch: 8,
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
	for i := 1; i <= 6; i++ {
		fmt.Fprintf(c.w, "PUB %d\n", i*10)
	}
	fmt.Fprintln(c.w, "HWM 0") // barrier closes the run
	if err := c.w.Flush(); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := 1; i <= 6; i++ {
		line, err := c.readLine()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if want := fmt.Sprintf("OK %d", i); line != want {
			t.Fatalf("response %d = %q, want %q", i, line, want)
		}
	}
	if line, _ := c.readLine(); !strings.HasPrefix(line, "HWM ") {
		t.Fatalf("barrier response = %q, want HWM", line)
	}
	waitEnd(t, c, 0, 6)
}

// TestSmokeMode runs the -smoke self-drive end to end at a small size.
func TestSmokeMode(t *testing.T) {
	cfg := serverConfig{shards: 2, batch: 8, spool: spool.Config{SegEvents: 32}}
	if err := runSmoke(4000, cfg); err != nil {
		t.Fatalf("smoke: %v", err)
	}
}

// TestFlightRecorder checks the partition-0 flight recorder is reachable
// through /debug/flight when enabled.
func TestFlightRecorder(t *testing.T) {
	d, err := start("127.0.0.1:0", "127.0.0.1:0", serverConfig{clients: 2, shards: 1, batch: 4,
		spool: spool.Config{SegEvents: 16}, flight: 64}, 0)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()

	c, err := dial(d.addr) // slot 0 -> partition 0: the traced partition
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.conn.Close()
	for i := 0; i < 8; i++ {
		fmt.Fprintf(c.w, "PUB %d\n", i)
	}
	c.w.Flush()
	for i := 0; i < 8; i++ {
		if _, err := c.readLine(); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	waitEnd(t, c, 0, 8)

	body := httpGet(t, "http://"+d.metricsAddr()+"/debug/flight?format=text")
	if !strings.Contains(body, "round") {
		t.Fatalf("flight snapshot has no round events:\n%.400s", body)
	}
}

func TestStartRejectsBadMetricsAddr(t *testing.T) {
	if _, err := start("127.0.0.1:0", "256.0.0.1:bad",
		serverConfig{clients: 1, shards: 1, batch: 1}, 0); err == nil {
		t.Fatal("start accepted a bad metrics address")
	}
}

// TestTimelineEndpoint boots with the telemetry timeline enabled, publishes
// events, and checks /debug/timeline serves per-partition ingest series
// with nonzero ops — the per-partition breakdown riding the labeled-name
// convention.
func TestTimelineEndpoint(t *testing.T) {
	cfg := serverConfig{clients: 4, shards: 2, batch: 4,
		spool:    spool.Config{SegEvents: 16},
		timeline: 10 * time.Millisecond}
	d, err := start("127.0.0.1:0", "127.0.0.1:0", cfg, 0)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()

	c, err := dial(d.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.conn.Close()
	for i := 0; i < 32; i++ {
		fmt.Fprintf(c.w, "PUB %d\n", i)
	}
	if err := c.w.Flush(); err != nil {
		t.Fatalf("pub: %v", err)
	}
	for i := 0; i < 32; i++ {
		if line, err := c.readLine(); err != nil || !strings.HasPrefix(line, "OK") {
			t.Fatalf("PUB %d -> %q, %v", i, line, err)
		}
	}
	waitEnd(t, c, 0, 32)

	base := "http://" + d.metricsAddr()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resp struct {
			Series map[string][]struct {
				Ops uint64 `json:"ops"`
			} `json:"series"`
		}
		body := httpGet(t, base+`/debug/timeline?window=30s`)
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("timeline response invalid JSON: %v\n%s", err, body)
		}
		var spoolOps uint64
		for _, s := range resp.Series[`ingest_spool{partition="0"}`] {
			spoolOps += s.Ops
		}
		if spoolOps > 0 {
			return
		}
		if time.Now().After(deadline) {
			names := make([]string, 0, len(resp.Series))
			for k := range resp.Series {
				names = append(names, k)
			}
			t.Fatalf("partition-0 spool series never saw ops; series: %v", names)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
