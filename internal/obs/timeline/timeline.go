package timeline

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/retention"
	"repro/internal/spool"
)

// Spool process ids. The construction's announce slots are single-writer,
// so each timeline actor owns one: the scraper, the annotation feed (SLO
// transitions, watchdog stalls — serialized by a mutex), and the retention
// runner.
const (
	pidScrape = iota
	pidAnnotate
	pidRetention
	pidCount
)

// ringCap bounds the in-memory recent-sample ring kept per series for SLO
// evaluation. At the default 1s interval it covers over 8 minutes — far
// beyond any sane rule window — while staying a fixed-size allocation.
const ringCap = 512

// Config parameterizes a Timeline. The zero value is usable: 1s interval,
// 15 minute retention.
type Config struct {
	// Interval is the scrape period (default 1s, floor 10ms).
	Interval time.Duration
	// Retain bounds sample age; older samples expire as whole segments
	// via one retention op-vector (default 15m).
	Retain time.Duration
	// MaxSamples additionally caps retained entries (0 = no cap).
	MaxSamples int
	// SegSamples is the spool segment size (default 256).
	SegSamples int
	// Rules are the SLO rules evaluated after every scrape.
	Rules []Rule
	// OnBreach, if non-nil, is invoked once per rule episode on each
	// breach and clear transition, from the scraper goroutine — wire it
	// to the same escalation path as the progress watchdog.
	OnBreach func(Breach)
	// Now overrides the clock (unix nanos) for tests.
	Now func() int64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Interval < 10*time.Millisecond {
		c.Interval = 10 * time.Millisecond
	}
	if c.Retain <= 0 {
		c.Retain = 15 * time.Minute
	}
	if c.SegSamples <= 0 {
		c.SegSamples = 256
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

// seriesState is the scraper's per-series working set: the metric pointers
// resolved once at construction, the previous-tick totals the deltas are
// computed against, and a fixed ring of recent samples for rule evaluation.
// Only the scraper touches it after construction.
type seriesState struct {
	name string

	ops, casSuccess, casFail, combined []*obs.Counter
	lat, combine                       *obs.Histogram

	prevOps, prevCASSuccess, prevCASFail, prevCombined uint64
	prevLat, prevCombine                               obs.HistSnapshot

	ring    []Sample
	ringLen int // filled prefix while warming; == len(ring) afterwards
	ringPos int // next write position
}

func (ss *seriesState) push(s Sample) {
	ss.ring[ss.ringPos] = s
	ss.ringPos = (ss.ringPos + 1) % len(ss.ring)
	if ss.ringLen < len(ss.ring) {
		ss.ringLen++
	}
}

// recent iterates the ring newest-first, stopping when fn returns false.
func (ss *seriesState) recent(fn func(Sample) bool) {
	for i := 1; i <= ss.ringLen; i++ {
		if !fn(ss.ring[(ss.ringPos-i+len(ss.ring))%len(ss.ring)]) {
			return
		}
	}
}

// Timeline owns the metric history log. Construct with New, drive with
// Start/Stop (or Scrape directly in tests), query with Snapshot/Handler.
type Timeline struct {
	cfg    Config
	sp     *spool.Spool[Sample]
	ret    *retention.Runner[Sample]
	series []*seriesState
	names  []string

	lastScrape int64
	batch      []Sample
	offs       []uint64

	ruleMu sync.Mutex // guards ruleState mutable fields (scraper writes, queries read)
	rules  []ruleState

	annotMu  sync.Mutex
	stallTS  [128]int64
	stallPos int

	skipped *obs.Counter // queries that observed expired samples
	samples *obs.Counter // appended scrape samples

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// New builds a timeline over reg, resolving its series from the registry's
// current contents: every counter named <prefix>_ops_total declares the
// series <prefix> (labeled names included — see the package doc), and every
// memory-plane size class (a counter alloc_blocks_total{class="C"}, see
// alloc.Pool.Attach) declares the series alloc{class="C"} with the plane's
// families mapped onto the sample columns — Ops carries blocks issued,
// CASSuccess shared-pool handoffs, CASFail guard starvation, Combined fresh
// heap allocations. Metrics registered AFTER New are not scraped, so
// instrument first. reg may also carry the timeline's own self-metrics
// (timeline_samples_total, timeline_query_skip_total).
func New(reg *obs.Registry, cfg Config) *Timeline {
	cfg = cfg.withDefaults()
	t := &Timeline{cfg: cfg}
	for _, name := range reg.CounterNames() {
		base, labels := obs.SplitName(name)
		if !strings.HasSuffix(base, "_ops_total") {
			continue
		}
		prefix := strings.TrimSuffix(base, "_ops_total")
		if labels != "" {
			prefix += "{" + labels + "}"
		}
		ss := &seriesState{
			name:       prefix,
			ops:        reg.LookupCounters(name),
			casSuccess: reg.LookupCounters(obs.Join(prefix, "_cas_success_total")),
			casFail:    reg.LookupCounters(obs.Join(prefix, "_cas_fail_total")),
			combined:   reg.LookupCounters(obs.Join(prefix, "_combined_total")),
			lat:        reg.LookupHistogram(obs.Join(prefix, "_op_latency_ns")),
			combine:    reg.LookupHistogram(obs.Join(prefix, "_combine_degree")),
			ring:       make([]Sample, ringCap),
		}
		t.series = append(t.series, ss)
		t.names = append(t.names, prefix)
	}
	for _, name := range reg.CounterNames() {
		base, labels := obs.SplitName(name)
		if base != "alloc_blocks_total" {
			continue
		}
		prefix := "alloc"
		if labels != "" {
			prefix += "{" + labels + "}"
		}
		ss := &seriesState{
			name:       prefix,
			ops:        reg.LookupCounters(name),
			casSuccess: reg.LookupCounters(obs.Join(prefix, "_pool_handoff_total")),
			casFail:    reg.LookupCounters(obs.Join(prefix, "_starved_total")),
			combined:   reg.LookupCounters(obs.Join(prefix, "_fresh_total")),
			ring:       make([]Sample, ringCap),
		}
		t.series = append(t.series, ss)
		t.names = append(t.names, prefix)
	}
	// Preallocate what the active segment can actually hold: a segment
	// never outgrows SegSamples, and a sample cap trims it below MaxSamples.
	prealloc := cfg.SegSamples
	if cfg.MaxSamples > 0 {
		prealloc = min(prealloc, cfg.MaxSamples)
	}
	t.sp = spool.New[Sample](pidCount, spool.Config{
		SegEvents:      cfg.SegSamples,
		BucketNs:       cfg.Interval.Nanoseconds() * int64(cfg.SegSamples),
		PreallocEvents: prealloc,
	})
	t.ret = retention.NewRunner[Sample](t.sp, pidRetention, retention.Policy{
		MaxAge:    cfg.Retain,
		MaxEvents: cfg.MaxSamples,
	})
	t.ret.Now = cfg.Now
	t.batch = make([]Sample, len(t.series))
	t.offs = make([]uint64, 0, len(t.series))
	t.rules = make([]ruleState, len(cfg.Rules))
	for i := range cfg.Rules {
		t.rules[i] = ruleState{rule: cfg.Rules[i].withDefaults()}
	}
	t.resolveRuleTargets()
	t.skipped = reg.Counter("timeline_query_skip_total", 1)
	t.samples = obs.NewCounter(1)
	reg.AttachCounter("timeline_samples_total", t.samples)
	return t
}

// SeriesNames returns the discovered series, in scrape order.
func (t *Timeline) SeriesNames() []string { return t.names }

// Rules returns the configured SLO rules, in evaluation order.
func (t *Timeline) Rules() []Rule {
	out := make([]Rule, len(t.rules))
	for i := range t.rules {
		out[i] = t.rules[i].rule
	}
	return out
}

// Interval returns the configured scrape interval.
func (t *Timeline) Interval() time.Duration { return t.cfg.Interval }

// Snapshot returns a point-in-time view of the sample log. The view is a
// PSim.Read snapshot: immutable, valid forever, and obtained without
// blocking the scraper.
func (t *Timeline) Snapshot() spool.View[Sample] { return t.sp.Snapshot() }

// CountSkip records that a query observed skipped (expired) samples.
// Serialized on the annotation mutex — the counter slot is single-writer
// and queries are concurrent.
func (t *Timeline) CountSkip(n uint64) {
	if n > 0 {
		t.annotMu.Lock()
		t.skipped.Add(0, n)
		t.annotMu.Unlock()
	}
}

// Compact runs one retention pass now and returns the new low watermark:
// every expiry leg the policy implies is submitted as ONE op-vector, so
// samples expire at a single linearization point. The Start loop runs
// passes periodically; tests and batch tools call it directly.
func (t *Timeline) Compact() uint64 { return t.ret.Pass() }

// Scrape runs one scrape pass at the current clock: per-series deltas are
// computed against the previous pass, one Sample per series is appended as
// a single batch (one linearizable op-vector), and SLO rules are evaluated
// on the updated rings. Steady-state cost is 0 allocs/op — the sample is
// fixed-size, the batch buffer and the spool's clone buffers are recycled.
// Called by the Start loop; tests drive it directly.
func (t *Timeline) Scrape() {
	now := t.cfg.Now()
	interval := t.cfg.Interval.Nanoseconds()
	if t.lastScrape != 0 && now > t.lastScrape {
		interval = now - t.lastScrape
	}
	t.lastScrape = now

	for i, ss := range t.series {
		s := Sample{TS: now, IntervalNs: interval, Series: int32(i), Kind: KindSample}

		ops := sumCounters(ss.ops)
		s.Ops, ss.prevOps = ops-ss.prevOps, ops
		cs := sumCounters(ss.casSuccess)
		s.CASSuccess, ss.prevCASSuccess = cs-ss.prevCASSuccess, cs
		cf := sumCounters(ss.casFail)
		s.CASFail, ss.prevCASFail = cf-ss.prevCASFail, cf
		cb := sumCounters(ss.combined)
		s.Combined, ss.prevCombined = cb-ss.prevCombined, cb

		lat := ss.lat.Snapshot()
		d := lat
		d.Sub(ss.prevLat)
		ss.prevLat = lat
		s.LatCount = d.Count
		s.LatP50 = d.Quantile(0.50)
		s.LatP90 = d.Quantile(0.90)
		s.LatP99 = d.Quantile(0.99)
		s.LatMax = d.Max

		comb := ss.combine.Snapshot()
		dc := comb
		dc.Sub(ss.prevCombine)
		ss.prevCombine = comb
		s.CombineMeanMilli = uint64(dc.Mean() * 1000)

		t.batch[i] = s
		ss.push(s)
	}
	if len(t.batch) > 0 {
		t.offs = t.sp.AppendBatch(pidScrape, t.batch, t.offs[:0])
		t.samples.Add(0, uint64(len(t.batch)))
	}
	t.evalRules(now)
}

func sumCounters(l []*obs.Counter) uint64 {
	var t uint64
	for _, c := range l {
		t += c.Total()
	}
	return t
}

// annotate appends one annotation entry. Annotations share process id
// pidAnnotate behind a mutex: they come from several goroutines (SLO
// transitions on the scraper, watchdog callbacks on the scan goroutine)
// but the construction's announce slots are single-writer.
func (t *Timeline) annotate(s Sample) {
	t.annotMu.Lock()
	t.sp.Append(pidAnnotate, s)
	if s.Kind == KindStall {
		t.stallTS[t.stallPos] = s.TS
		t.stallPos = (t.stallPos + 1) % len(t.stallTS)
	}
	t.annotMu.Unlock()
}

// RecordStall feeds a progress-watchdog stall episode into the timeline:
// it becomes a KindStall annotation (Series = pid, Value = outlived
// rounds) and counts toward the `stalls` SLO rule. Wire it into the
// trace.Watchdog onStall callback.
func (t *Timeline) RecordStall(pid int, rounds uint64) {
	t.annotate(Sample{TS: t.cfg.Now(), Series: int32(pid), Kind: KindStall, Value: float64(rounds)})
}

// stallsSince counts recorded stall episodes at or after cutoff.
func (t *Timeline) stallsSince(cutoff int64) int {
	t.annotMu.Lock()
	defer t.annotMu.Unlock()
	n := 0
	for _, ts := range t.stallTS {
		if ts != 0 && ts >= cutoff {
			n++
		}
	}
	return n
}

// Start launches the periodic scrape loop and the retention runner.
func (t *Timeline) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	retEvery := t.cfg.Interval
	if retEvery < time.Second {
		retEvery = time.Second
	}
	t.ret.Start(retEvery)
	go func(stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(t.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Scrape()
			}
		}
	}(t.stop, t.done)
}

// Stop halts the scrape loop and retention runner.
func (t *Timeline) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop == nil {
		return
	}
	close(t.stop)
	<-t.done
	t.ret.Stop()
	t.stop, t.done = nil, nil
}
