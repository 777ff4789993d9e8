package obs

import (
	"maps"
	"sort"
	"sync"
)

// Registry is a named-metric directory. Registration (the get-or-create
// accessors and Attach methods) takes a mutex — it happens at setup time, not
// on hot paths — while the returned primitives are the wait-free per-thread
// structures. Snapshot and Delta read every registered metric with atomic
// loads.
//
// A name may hold SEVERAL counters: AttachCounter lets code that already
// maintains its own per-thread counters (core.StatsPlane, one per Sim
// instance) publish them under a shared name, and snapshots sum the
// collection — e.g. every stripe of a simmap attaches its plane to the same
// "map_ops_total". A histogram name holds exactly one histogram: Histogram
// is get-or-create, so every instance recording under a name shares it.
type Registry struct {
	mu       sync.Mutex
	counters map[string][]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	lastCounters map[string]uint64
	lastHists    map[string]HistSnapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     map[string][]*Counter{},
		gauges:       map[string]*Gauge{},
		hists:        map[string]*Histogram{},
		lastCounters: map[string]uint64{},
		lastHists:    map[string]HistSnapshot{},
	}
}

// Counter returns the counter registered under name, creating it with n
// per-thread slots on first use. Later calls ignore n (first registration
// wins), so pass the maximum process count the metric will ever see.
func (r *Registry) Counter(name string, n int) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if l := r.counters[name]; len(l) > 0 {
		return l[0]
	}
	c := NewCounter(n)
	r.counters[name] = []*Counter{c}
	return c
}

// AttachCounter publishes an externally owned counter under name; snapshots
// report the sum of every counter attached to the name. Attaching the same
// counter twice double-counts it — don't.
func (r *Registry) AttachCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = append(r.counters[name], c)
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with n
// per-thread slots on first use. Later calls ignore n (first registration
// wins).
func (r *Registry) Histogram(name string, n int) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(n)
		r.hists[name] = h
	}
	return h
}

// CounterNames returns every registered counter name, sorted. Setup-time
// discovery (the telemetry timeline resolves its series from it); not for
// hot paths.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// LookupCounters returns the counters published under name (a copy of the
// attach list; nil if the name is unregistered). Resolving the list once at
// setup lets a periodic reader sum Total() with no per-read locking.
func (r *Registry) LookupCounters(name string) []*Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if l := r.counters[name]; len(l) > 0 {
		return append([]*Counter(nil), l...)
	}
	return nil
}

// LookupHistogram returns the histogram registered under name (nil if
// unregistered).
func (r *Registry) LookupHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// Snapshot is a point-in-time aggregated view of every registered metric.
// Maps are keyed by metric name; histogram values are aggregated across
// threads. Not a linearizable cross-metric cut (see package doc).
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Names returns all metric names of the snapshot, sorted, for stable export.
func (s Snapshot) Names() (counters, gauges, hists []string) {
	for k := range s.Counters {
		counters = append(counters, k)
	}
	for k := range s.Gauges {
		gauges = append(gauges, k)
	}
	for k := range s.Histograms {
		hists = append(hists, k)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}

// Snapshot reads every registered metric. Nil-safe (returns empty maps).
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make(map[string][]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = append([]*Counter(nil), v...)
	}
	gauges := maps.Clone(r.gauges)
	hists := maps.Clone(r.hists)
	r.mu.Unlock()

	for k, l := range counters {
		var t uint64
		for _, c := range l {
			t += c.Total()
		}
		out.Counters[k] = t
	}
	for k, g := range gauges {
		out.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		out.Histograms[k] = h.Snapshot()
	}
	return out
}

// Delta returns the change in every counter and histogram since the previous
// Delta call (or since registry creation on the first call). Gauges are
// reported at their absolute value — a delta of a level is meaningless.
// Delta is what a periodic dumper wants: per-interval rates instead of
// lifetime totals. Counters and histograms only grow, but two overlapping
// callers may take their snapshots in one order and record them in the
// other: the later-recorded difference then clamps at zero, and the next
// call counts that interval again.
func (r *Registry) Delta() Snapshot {
	snap := r.Snapshot()
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range snap.Counters {
		prev := r.lastCounters[k]
		r.lastCounters[k] = v
		snap.Counters[k] = subClamp(v, prev)
	}
	for k, v := range snap.Histograms {
		prev := r.lastHists[k]
		r.lastHists[k] = v
		v.Sub(prev)
		snap.Histograms[k] = v
	}
	return snap
}
