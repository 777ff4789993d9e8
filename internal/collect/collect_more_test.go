package collect

import (
	"sync"
	"testing"
)

// TestSimCollectD1MirrorsActSet: a 1-bit collect is exactly an active set;
// cross-validate the two implementations under the same update schedule.
func TestSimCollectD1MirrorsActSet(t *testing.T) {
	const n = 10
	col := NewSimCollect(n, 1)
	as := NewActSet(n)
	ups := make([]*Updater, n)
	mems := make([]*Member, n)
	for i := 0; i < n; i++ {
		ups[i] = col.Updater(i)
		mems[i] = as.Member(i)
	}
	schedule := [][2]int{{0, 1}, {3, 1}, {0, 0}, {7, 1}, {3, 0}, {9, 1}, {7, 0}, {7, 1}}
	for _, step := range schedule {
		i, v := step[0], step[1]
		ups[i].Update(uint64(v))
		if v == 1 {
			mems[i].Join()
		} else {
			mems[i].Leave()
		}
		vals := col.Collect()
		set := as.GetSet()
		for q := 0; q < n; q++ {
			if (vals[q] == 1) != set.Bit(q) {
				t.Fatalf("after step %v: collect %v disagrees with actset %v", step, vals, set)
			}
		}
	}
}

// TestUpdaterIndependentComponentsConcurrent: two updaters whose chunks
// share a word, updated concurrently at full speed — per-writer last values
// must be exact (the no-carry invariant under real interleavings).
func TestUpdaterIndependentComponentsConcurrent(t *testing.T) {
	const iters = 20_000
	c := NewSimCollect(2, 32) // both chunks in one word
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := c.Updater(w)
			for k := 1; k <= iters; k++ {
				u.Update(uint64(k))
			}
		}(w)
	}
	wg.Wait()
	vals := c.Collect()
	if vals[0] != iters || vals[1] != iters {
		t.Fatalf("final collect %v, want [%d %d]", vals, iters, iters)
	}
}

// TestSimCollectManyWriters: 64 single-writer components of 8 bits across 8
// words, all hammered concurrently.
func TestSimCollectManyWriters(t *testing.T) {
	const n, per = 64, 2_000
	c := NewSimCollect(n, 8)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			u := c.Updater(id)
			for k := 0; k < per; k++ {
				u.Update(uint64((id + k) % 256))
			}
		}(i)
	}
	wg.Wait()
	vals := c.Collect()
	for i := 0; i < n; i++ {
		want := uint64((i + per - 1) % 256)
		if vals[i] != want {
			t.Fatalf("component %d = %d, want %d", i, vals[i], want)
		}
	}
}
