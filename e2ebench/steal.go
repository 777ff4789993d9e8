package main

import (
	"cmp"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// On a shared host the hypervisor runs other guests on this VM's CPUs, and
// the guest sees that time as steal in /proc/stat. A window that lost CPU
// to steal measures the neighbours as much as the program (capacity halves
// and p50s triple at 30% steal on the reference host), so the end-to-end
// statistics are taken over the least-stolen windows of a run.

// keepShare is the least share of a run's windows, least stolen first, that
// its end-to-end statistics are taken over.
const keepShare = 1.0 / 5

// stealClock returns the steal and total CPU ticks of all CPUs.
func stealClock() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] { // user nice system idle iowait irq softirq steal ...
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of CPU time stolen since it started.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := stealClock()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := stealClock()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// measured is one window's statistic, the steal share during it, and the
// requests and daemon CPU ticks it covered.
type measured struct {
	v     float64
	steal float64
	n     int
	ticks int64
}

// leastStolen returns the keepShare of ws with the least steal and every
// other window no more stolen than those, so on a quiet host, where most
// windows see no steal, the statistic is taken over all of them rather
// than over the first to run.
func leastStolen(ws []measured) []measured {
	s := slices.Clone(ws)
	slices.SortStableFunc(s, func(a, b measured) int { return cmp.Compare(a.steal, b.steal) })
	k := max(1, int(math.Ceil(float64(len(s))*keepShare)))
	for k < len(s) && s[k].steal <= s[k-1].steal {
		k++
	}
	return s[:k]
}

// medianOf returns the median statistic of ws and the requests behind it.
func medianOf(ws []measured) (v float64, n int) {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = w.v
		n += w.n
	}
	return median(vs), n
}

func meanSteal(ws []measured) float64 {
	var s float64
	for _, w := range ws {
		s += w.steal
	}
	return s / float64(max(len(ws), 1))
}
