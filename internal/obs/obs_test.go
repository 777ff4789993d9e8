package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter(4)
	c.Inc(0)
	c.Add(0, 2)
	c.Inc(3)
	if got := c.Total(); got != 4 {
		t.Fatalf("total = %d, want 4", got)
	}
	if c.Value(0) != 3 || c.Value(3) != 1 || c.Value(1) != 0 {
		t.Fatalf("slot values wrong: %d %d %d", c.Value(0), c.Value(3), c.Value(1))
	}
}

func TestCounterRoundsUpSlots(t *testing.T) {
	if NewCounter(0).Slots() != 1 || NewHistogram(-3).Slots() != 1 {
		t.Fatal("slot count not rounded up to 1")
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *SimRecorder
	var reg *Registry
	c.Inc(0)
	c.Add(5, 7)
	_ = c.Total()
	_ = c.Value(9)
	g.Add(1)
	g.Set(2)
	_ = g.Value()
	h.Record(0, 1)
	_ = h.Snapshot()
	t0 := r.Start(0)
	if t0 != 0 {
		t.Fatal("nil recorder touched the clock")
	}
	r.OpPublished(0, t0, End(t0), 1)
	r.OpDone(0, t0, End(t0))
	r.CombineObserved(0, 1)
	r.SetSampleEvery(8)
	if reg.Counter("x", 1) != nil || reg.Gauge("x") != nil || reg.Histogram("x", 1) != nil || reg.LookupHistogram("x") != nil {
		t.Fatal("nil registry returned a metric")
	}
	_ = reg.Snapshot()
	_ = reg.Delta()
}

func TestGauge(t *testing.T) {
	g := NewGauge()
	g.Add(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(2)
	h.Record(0, 0) // bucket 0
	h.Record(0, 1) // bucket 1: [1,1]
	h.Record(1, 5) // bucket 3: [4,7]
	h.Record(1, 1<<40)
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 6+1<<40 || s.Max != 1<<40 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[3] != 1 || s.Buckets[41] != 1 {
		t.Fatalf("buckets wrong: %v", s.Buckets)
	}
}

func TestBucketUpper(t *testing.T) {
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(3) != 7 {
		t.Fatal("small bucket bounds wrong")
	}
	if BucketUpper(64) != math.MaxUint64 {
		t.Fatal("top bucket bound wrong")
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram(1)
	// 100 samples at ~1000 (bucket upper 1023), 1 at ~1e6.
	for i := 0; i < 100; i++ {
		h.Record(0, 1000)
	}
	h.Record(0, 1_000_000)
	s := h.Snapshot()
	if q := s.Quantile(0.50); q != 1023 {
		t.Fatalf("p50 = %d, want 1023", q)
	}
	// p99 rank = ceil(0.99*101) = 100 → still the 1000s bucket.
	if q := s.Quantile(0.99); q != 1023 {
		t.Fatalf("p99 = %d, want 1023", q)
	}
	// p100 lands in the outlier's bucket, clamped to the observed max.
	if q := s.Quantile(1.0); q != 1_000_000 {
		t.Fatalf("p100 = %d, want 1000000", q)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty snapshot quantile/mean not 0")
	}
}

func TestSnapshotMergeSub(t *testing.T) {
	h := NewHistogram(1)
	h.Record(0, 10)
	h.Record(0, 20)
	before := h.Snapshot()
	h.Record(0, 30)
	after := h.Snapshot()
	after.Sub(before)
	if after.Count != 1 || after.Sum != 30 {
		t.Fatalf("delta: %+v", after)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("ops", 4)
	c2 := reg.Counter("ops", 99) // n ignored: first registration wins
	if c1 != c2 || c1.Slots() != 4 {
		t.Fatal("counter not deduplicated by name")
	}
	if h := reg.Histogram("lat", 2); h != reg.Histogram("lat", 2) || reg.LookupHistogram("lat") != h {
		t.Fatal("histogram not deduplicated")
	}
	if reg.LookupHistogram("nope") != nil {
		t.Fatal("lookup of an unregistered histogram returned one")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Fatal("gauge not deduplicated")
	}
}

func TestSimRecorderSampling(t *testing.T) {
	reg := NewRegistry()
	r := NewSimRecorder(reg, "x", 1)
	r.SetSampleEvery(4)
	for k := 0; k < 16; k++ {
		t0 := r.Start(0)
		if sampled := t0 != 0; sampled != (k%4 == 0) {
			t.Fatalf("op %d sampled=%v", k, sampled)
		}
		r.OpPublished(0, t0, End(t0), 2)
	}
	s := reg.Snapshot()
	if s.Histograms["x_op_latency_ns"].Count != 4 || s.Histograms["x_combine_degree"].Count != 4 {
		t.Fatalf("sampled counts wrong: %+v", s.Histograms)
	}

	// SetSampleEvery(1) records every operation.
	r2 := NewSimRecorder(reg, "y", 1)
	r2.SetSampleEvery(1)
	for k := 0; k < 5; k++ {
		t0 := r2.Start(0)
		r2.OpDone(0, t0, End(t0))
	}
	if got := reg.Snapshot().Histograms["y_op_latency_ns"].Count; got != 5 {
		t.Fatalf("unsampled latency count = %d, want 5", got)
	}

	// CombineObserved follows the enclosing operation's sampling decision and
	// may fire several times per operation (core.Sim publishes repeatedly).
	r3 := NewSimRecorder(reg, "z", 1)
	r3.SetSampleEvery(2)
	for k := 0; k < 6; k++ {
		r3.Start(0)
		r3.CombineObserved(0, 1)
		r3.CombineObserved(0, 2)
	}
	if got := reg.Snapshot().Histograms["z_combine_degree"].Count; got != 6 {
		t.Fatalf("combine observations = %d, want 6 (2 per sampled op)", got)
	}
}

func TestRegistryAttach(t *testing.T) {
	reg := NewRegistry()
	a, b := NewCounter(2), NewCounter(2)
	reg.AttachCounter("ops", a)
	reg.AttachCounter("ops", b)
	a.Add(0, 3)
	b.Add(1, 4)
	if got := reg.Snapshot().Counters["ops"]; got != 7 {
		t.Fatalf("attached counters sum = %d, want 7", got)
	}
	// Get-or-create under an attached name returns the first attachment.
	if reg.Counter("ops", 2) != a {
		t.Fatal("Counter did not return the first attached counter")
	}
	var nilReg *Registry
	nilReg.AttachCounter("x", a)
}

func TestRegistrySnapshotAndDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops", 2)
	g := reg.Gauge("conns")
	h := reg.Histogram("lat", 2)
	c.Add(0, 5)
	g.Set(3)
	h.Record(1, 100)

	s := reg.Snapshot()
	if s.Counters["ops"] != 5 || s.Gauges["conns"] != 3 || s.Histograms["lat"].Count != 1 {
		t.Fatalf("snapshot: %+v", s)
	}

	d1 := reg.Delta()
	if d1.Counters["ops"] != 5 || d1.Histograms["lat"].Count != 1 {
		t.Fatalf("first delta should cover everything: %+v", d1)
	}
	c.Add(1, 2)
	d2 := reg.Delta()
	if d2.Counters["ops"] != 2 || d2.Histograms["lat"].Count != 0 {
		t.Fatalf("second delta: %+v", d2)
	}
	// Gauges stay absolute in deltas.
	if d2.Gauges["conns"] != 3 {
		t.Fatalf("gauge in delta = %d, want absolute 3", d2.Gauges["conns"])
	}
}

// TestConcurrentWritersAndReaders is the -race exercise: one writer per
// slot, concurrent snapshot readers observing monotone counts.
func TestConcurrentWritersAndReaders(t *testing.T) {
	const n, perThread = 8, 5000
	reg := NewRegistry()
	c := reg.Counter("ops", n)
	h := reg.Histogram("lat", n)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: totals must never decrease.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastC, lastH uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := reg.Snapshot()
				if s.Counters["ops"] < lastC {
					t.Errorf("counter went backwards: %d -> %d", lastC, s.Counters["ops"])
					return
				}
				lastC = s.Counters["ops"]
				if s.Histograms["lat"].Count < lastH {
					t.Errorf("histogram count went backwards")
					return
				}
				lastH = s.Histograms["lat"].Count
			}
		}()
	}
	var writers sync.WaitGroup
	for i := 0; i < n; i++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			for k := 0; k < perThread; k++ {
				c.Inc(id)
				h.Record(id, uint64(k%4096))
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := c.Total(); got != n*perThread {
		t.Fatalf("counter total = %d, want %d", got, n*perThread)
	}
	if got := h.Snapshot().Count; got != n*perThread {
		t.Fatalf("histogram count = %d, want %d", got, n*perThread)
	}
}

// TestCounterPerSlot pins the single-writer slot contract the constructions'
// shared-access counts rely on: each slot is exact, untouched slots stay
// zero, and concurrent writers on distinct slots never bleed across.
func TestCounterPerSlot(t *testing.T) {
	t.Run("AddTotal", func(t *testing.T) {
		c := NewCounter(4)
		c.Inc(0)
		c.Add(1, 5)
		c.Add(3, 2)
		if got := c.Total(); got != 8 {
			t.Fatalf("total = %d, want 8", got)
		}
		for i, want := range []uint64{1, 5, 0, 2} {
			if got := c.Value(i); got != want {
				t.Fatalf("slot %d = %d, want %d", i, got, want)
			}
		}
	})
	t.Run("NilSafe", func(t *testing.T) {
		var c *Counter
		c.Inc(0)
		c.Add(3, 10)
		if c.Total() != 0 || c.Value(3) != 0 || c.Slots() != 0 {
			t.Fatal("nil counter reported a count")
		}
	})
	t.Run("Concurrent", func(t *testing.T) {
		const n, per = 8, 1000
		c := NewCounter(n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					c.Inc(id)
				}
			}(i)
		}
		wg.Wait()
		if got := c.Total(); got != n*per {
			t.Fatalf("total = %d, want %d", got, n*per)
		}
	})
	t.Run("PerThreadIsolated", func(t *testing.T) {
		const n = 8
		c := NewCounter(n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < (id+1)*100; k++ {
					c.Add(id, 1)
				}
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if got := c.Value(i); got != uint64((i+1)*100) {
				t.Fatalf("slot %d = %d, want %d", i, got, (i+1)*100)
			}
		}
	})
}
