package timeline

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/obs"
)

// fakeClock is a manually-advanced unix-nano clock for deterministic
// scrape intervals.
type fakeClock struct{ now int64 }

func (c *fakeClock) Now() int64              { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now += d.Nanoseconds() }

// testRegistry registers an aggregate "map" series plus two labeled shard
// series, mirroring what a sharded simmap publishes.
func testRegistry() (*obs.Registry, *obs.Counter, *obs.Histogram) {
	reg := obs.NewRegistry()
	ops := reg.Counter("map_ops_total", 2)
	reg.Counter("map_cas_success_total", 2)
	reg.Counter("map_cas_fail_total", 2)
	lat := reg.Histogram("map_op_latency_ns", 2)
	reg.Counter(`map_ops_total{shard="0"}`, 1)
	reg.Counter(`map_ops_total{shard="1"}`, 1)
	return reg, ops, lat
}

func TestSeriesDiscovery(t *testing.T) {
	reg, _, _ := testRegistry()
	clk := &fakeClock{now: 1}
	tl := New(reg, Config{Now: clk.Now})
	got := strings.Join(tl.SeriesNames(), ",")
	for _, want := range []string{"map", `map{shard="0"}`, `map{shard="1"}`} {
		if !strings.Contains(got, want) {
			t.Fatalf("series %q not discovered in %q", want, got)
		}
	}
	// Non-series names must not leak in.
	if strings.Contains(got, "timeline") {
		t.Fatalf("self-metrics discovered as a series: %q", got)
	}
}

func TestScrapeDeltas(t *testing.T) {
	reg, ops, lat := testRegistry()
	casFail := reg.LookupCounters("map_cas_fail_total")[0]
	casOK := reg.LookupCounters("map_cas_success_total")[0]
	clk := &fakeClock{now: time.Now().UnixNano()}
	tl := New(reg, Config{Interval: time.Second, Now: clk.Now})

	ops.Add(0, 100)
	casOK.Add(0, 90)
	casFail.Add(0, 10)
	lat.Record(0, 1000)
	tl.Scrape()

	clk.Advance(time.Second)
	ops.Add(0, 50)
	casOK.Add(0, 40)
	casFail.Add(0, 40)
	lat.Record(0, 2000)
	lat.Record(0, 4000)
	tl.Scrape()

	resp := tl.Query(0, 0, []string{"map"})
	samples := resp.Series["map"]
	if len(samples) != 2 {
		t.Fatalf("want 2 samples for map, got %d (%+v)", len(samples), resp.Series)
	}
	first, second := samples[0], samples[1]
	if first.Ops != 100 || second.Ops != 50 {
		t.Fatalf("ops deltas wrong: first=%d second=%d", first.Ops, second.Ops)
	}
	if second.OpsPerSec < 49 || second.OpsPerSec > 51 {
		t.Fatalf("ops/sec = %v, want ~50", second.OpsPerSec)
	}
	if got := second.CASFailRatio; got != 0.5 {
		t.Fatalf("cas fail ratio = %v, want 0.5 (interval delta, not lifetime)", got)
	}
	if second.LatCount != 2 || second.LatP99 < 4000 || second.LatP99 > 8191 {
		t.Fatalf("latency delta wrong: count=%d p99=%d", second.LatCount, second.LatP99)
	}
	// The labeled shard series scrape alongside, one sample per tick.
	resp = tl.Query(0, 0, nil)
	if got := len(resp.Series[`map{shard="0"}`]); got != 2 {
		t.Fatalf(`shard="0" series has %d samples, want 2`, got)
	}
}

// TestRetentionExpiry drives the sample log past its retention bound and
// checks (a) one Compact call — one ApplyBatch op-vector — expires the
// aged samples, and (b) a consumer whose cursor fell below the low
// watermark gets a counted skip, both from View.Read and the HTTP query.
func TestRetentionExpiry(t *testing.T) {
	reg, ops, _ := testRegistry()
	clk := &fakeClock{now: time.Now().UnixNano()}
	tl := New(reg, Config{
		Interval:   time.Second,
		Retain:     10 * time.Second,
		SegSamples: 9, // 3 ticks × 3 series per segment
		Now:        clk.Now,
	})
	const ticks = 30
	for i := 0; i < ticks; i++ {
		ops.Add(0, 10)
		tl.Scrape()
		clk.Advance(time.Second)
	}
	before := tl.Snapshot()
	if before.LowWater() != 0 {
		t.Fatalf("low water moved before any retention pass: %d", before.LowWater())
	}
	lwm := tl.Compact()
	if lwm == 0 {
		t.Fatal("retention pass expired nothing")
	}
	after := tl.Snapshot()
	if after.LowWater() != lwm || after.End() != before.End() {
		t.Fatalf("pass mangled the log: lwm=%d end=%d->%d", after.LowWater(), before.End(), after.End())
	}
	// A consumer resuming from offset 0 observes the expiry as a counted
	// skip, not silence.
	_, next, skipped := after.Read(0, int(after.End()), nil)
	if skipped != lwm {
		t.Fatalf("skipped = %d, want %d", skipped, lwm)
	}
	if next != after.End() {
		t.Fatalf("cursor did not reach end: %d != %d", next, after.End())
	}
	resp := tl.Query(0, 0, nil)
	if resp.Skipped != 0 {
		t.Fatalf("cursor-less query reported a skip: %d", resp.Skipped)
	}
	resp = tl.Query(0, 1, nil)
	if resp.Skipped != lwm-1 {
		t.Fatalf("query skip = %d, want %d", resp.Skipped, lwm-1)
	}
	if got := reg.Snapshot().Counters["timeline_query_skip_total"]; got != lwm-1 {
		t.Fatalf("timeline_query_skip_total = %d, want %d", got, lwm-1)
	}
}

func TestHandler(t *testing.T) {
	reg, ops, _ := testRegistry()
	clk := &fakeClock{now: time.Now().UnixNano()}
	tl := New(reg, Config{Interval: time.Second, Now: clk.Now})
	for i := 0; i < 3; i++ {
		ops.Add(0, 7)
		tl.Scrape()
		clk.Advance(time.Second)
	}
	h := Handler(tl)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/timeline?window=60s&series=map", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp ResponseJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rr.Body.String())
	}
	if len(resp.Series) != 1 || len(resp.Series["map"]) != 3 {
		t.Fatalf("series filter wrong: %+v", resp.Series)
	}
	if resp.Series["map"][2].Ops != 7 {
		t.Fatalf("sample ops = %d, want 7", resp.Series["map"][2].Ops)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/timeline?window=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("bad window accepted: %d", rr.Code)
	}

	rr = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/timeline", nil))
	if rr.Code != 404 {
		t.Fatalf("nil timeline should 404, got %d", rr.Code)
	}
}

func TestRecordStallAnnotation(t *testing.T) {
	reg, _, _ := testRegistry()
	clk := &fakeClock{now: time.Now().UnixNano()}
	tl := New(reg, Config{Interval: time.Second, Now: clk.Now})
	tl.Scrape()
	tl.RecordStall(3, 4096)
	resp := tl.Query(0, 0, nil)
	if len(resp.Annotations) != 1 {
		t.Fatalf("want 1 annotation, got %+v", resp.Annotations)
	}
	a := resp.Annotations[0]
	if a.Kind != "watchdog_stall" || a.Ref != "pid 3" || a.Value != 4096 {
		t.Fatalf("stall annotation wrong: %+v", a)
	}
}

func TestStartStop(t *testing.T) {
	reg, ops, _ := testRegistry()
	tl := New(reg, Config{Interval: 10 * time.Millisecond, Retain: time.Minute})
	tl.Start()
	defer tl.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ops.Add(0, 1)
		if v := tl.Snapshot(); v.End() >= 6 { // two ticks × three series
			tl.Stop()
			tl.Stop() // idempotent
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background scraper appended no samples within 2s")
}

// planeBlock is a minimal memory-plane block for the alloc-series tests.
type planeBlock struct{ next *planeBlock }

// TestAllocSeriesDiscovery checks that a registered memory-plane size class
// shows up as an alloc{class=...} series and that its families land in the
// mapped sample columns (Ops = blocks, Combined = fresh).
func TestAllocSeriesDiscovery(t *testing.T) {
	reg, _, _ := testRegistry()
	pool := alloc.NewPool(1, alloc.Config[planeBlock]{
		New:     func() *planeBlock { return &planeBlock{} },
		Next:    func(b *planeBlock) *planeBlock { return b.next },
		SetNext: func(b, nx *planeBlock) { b.next = nx },
	})
	pool.Attach(reg, "fmul_state", nil)
	clk := &fakeClock{now: 1}
	tl := New(reg, Config{Interval: time.Second, Now: clk.Now})

	want := `alloc{class="fmul_state"}`
	idx := -1
	for i, name := range tl.SeriesNames() {
		if name == want {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("series %q not discovered in %v", want, tl.SeriesNames())
	}

	h := pool.Handle(0)
	x, fresh := h.Get() // miss: counts one block and one fresh
	if !fresh {
		t.Fatal("first Get must be fresh")
	}
	h.Put(x)
	h.Get() // hit: one more block, no fresh
	clk.Advance(time.Second)
	tl.Scrape()

	v := tl.Snapshot()
	evs, _, _ := v.Read(v.LowWater(), v.Len(), nil)
	var got Sample
	found := false
	for _, s := range evs {
		if s.Kind == KindSample && int(s.Series) == idx {
			got, found = s, true
		}
	}
	if !found {
		t.Fatal("no scrape sample for the alloc series")
	}
	if got.Ops != 2 {
		t.Fatalf("Ops (blocks issued) = %d, want 2", got.Ops)
	}
	if got.Combined != 1 {
		t.Fatalf("Combined (fresh allocations) = %d, want 1", got.Combined)
	}
}
