package flatcombining

import (
	"sync"
	"testing"
	"time"
)

// counterFC builds a flat-combined fetch-and-add counter.
func counterFC(rounds, cleanup int) (*FC[uint64, uint64], *uint64) {
	state := new(uint64)
	fc := New(func(_ int, arg uint64) uint64 {
		prev := *state
		*state += arg
		return prev
	}, rounds, cleanup)
	return fc, state
}

func TestFCSequential(t *testing.T) {
	fc, state := counterFC(0, 0)
	h := fc.NewHandle(0)
	if got := h.Apply(5); got != 0 {
		t.Fatalf("first = %d", got)
	}
	if got := h.Apply(3); got != 5 {
		t.Fatalf("second = %d", got)
	}
	if *state != 8 {
		t.Fatalf("state = %d", *state)
	}
}

func TestFCConcurrentExactlyOnce(t *testing.T) {
	const n, per = 8, 400
	fc, state := counterFC(0, 0)
	seen := make([]bool, n*per)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := fc.NewHandle(id)
			local := make([]uint64, 0, per)
			for k := 0; k < per; k++ {
				local = append(local, h.Apply(1))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, prev := range local {
				if prev >= n*per || seen[prev] {
					t.Errorf("bad/duplicate previous value %d", prev)
					return
				}
				seen[prev] = true
			}
		}(i)
	}
	wg.Wait()
	if *state != n*per {
		t.Fatalf("state = %d, want %d", *state, n*per)
	}
}

func TestFCStats(t *testing.T) {
	const n, per = 4, 200
	fc, _ := counterFC(0, 0)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := fc.NewHandle(id)
			for k := 0; k < per; k++ {
				h.Apply(1)
			}
		}(i)
	}
	wg.Wait()
	s := fc.Stats()
	if s.Served != n*per {
		t.Fatalf("Served = %d, want %d", s.Served, n*per)
	}
	if s.Sessions == 0 || s.AvgCombine < 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFCCleanupAndReenlist: a frequent cleanup (every session, tiny idle
// age) unlinks idle records; owners must transparently re-enlist.
func TestFCCleanupAndReenlist(t *testing.T) {
	state := new(uint64)
	fc := New(func(_ int, arg uint64) uint64 {
		prev := *state
		*state += arg
		return prev
	}, 1, 1) // cleanup every combining session
	fc.maxIdleAge = 0 // unlink anything idle at all

	h0, h1 := fc.NewHandle(0), fc.NewHandle(1)
	for k := 0; k < 300; k++ {
		h0.Apply(1)
		h1.Apply(1)
	}
	if *state != 600 {
		t.Fatalf("state = %d, want 600 (ops lost across cleanup)", *state)
	}
}

func TestFCPublicationListGrowth(t *testing.T) {
	fc, _ := counterFC(0, 0)
	const n = 8
	handles := make([]*Handle[uint64, uint64], n)
	for i := range handles {
		handles[i] = fc.NewHandle(i)
		handles[i].Apply(1)
	}
	count := 0
	for r := fc.head.Load(); r != nil; r = r.next.Load() {
		count++
	}
	if count != n {
		t.Fatalf("publication list has %d records, want %d", count, n)
	}
}

func TestFCDefaultsApplied(t *testing.T) {
	fc := New(func(_ int, a uint64) uint64 { return a }, 0, 0)
	if fc.rounds != 3 || fc.cleanupEvery != 64 {
		t.Fatalf("defaults = rounds %d, cleanup %d", fc.rounds, fc.cleanupEvery)
	}
}

// TestFCMixedOpShapes: responses routed back to the right requester even
// when arguments differ wildly.
func TestFCMixedOpShapes(t *testing.T) {
	const n, per = 6, 200
	fc, _ := counterFC(0, 0)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := fc.NewHandle(id)
			var mySum uint64
			for k := 0; k < per; k++ {
				arg := uint64(id + 1)
				prev := h.Apply(arg)
				_ = prev
				mySum += arg
			}
			_ = mySum
		}(i)
	}
	wg.Wait()
}

// TestFCCrashedRequesterServed: a thread that published a request and then
// stopped participating (crashed) is still served by the next combiner —
// crashed NON-combiners are harmless in flat combining.
func TestFCCrashedRequesterServed(t *testing.T) {
	fc, state := counterFC(0, 0)
	crashed := fc.NewHandle(0)
	// Simulate the crash: enlist + publish a request, then never spin.
	fc.enlist(crashed.rec)
	crashed.rec.arg = 100
	crashed.rec.pending.Store(true)

	live := fc.NewHandle(1)
	if got := live.Apply(1); got != 0 && got != 100 {
		t.Fatalf("live op response %d", got)
	}
	if crashed.rec.pending.Load() {
		t.Fatal("crashed request still pending after a combining session")
	}
	if *state != 101 {
		t.Fatalf("state = %d, want 101", *state)
	}
}

// TestFCBlockedCombinerBlocksEveryone: the robustness gap the paper hammers
// (§1): while the global lock is held (a preempted/crashed combiner), NO
// other thread can make progress; progress resumes only when the lock is
// released. This is exactly the scenario the wait-free construction is
// immune to (compare TestPSimCrashedAnnouncerDoesNotBlock in core).
func TestFCBlockedCombinerBlocksEveryone(t *testing.T) {
	fc, _ := counterFC(0, 0)
	if !fc.lock.TryLock() { // the "crashed combiner" holds the global lock
		t.Fatal("could not take the lock")
	}
	done := make(chan struct{})
	go func() {
		h := fc.NewHandle(1)
		h.Apply(1)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("operation completed while the combiner lock was held")
	case <-time.After(20 * time.Millisecond):
		// expected: no progress
	}
	fc.lock.Unlock()
	select {
	case <-done:
		// progress resumed
	case <-time.After(5 * time.Second):
		t.Fatal("operation still blocked after the lock was released")
	}
}

// TestFCCleanupRacesEnlist races owners re-enlisting their records against
// a cleanup that runs every session and unlinks everything idle. An unlink
// that clears a record's enlisted flag before it reads the record's next
// link lets the owner re-enlist at the head in between, and the stale link
// then closes the publication list into a cycle that the lock holder walks
// forever; a record whose enlisted flag is set after it is published can be
// unlinked in between and never re-enlisted, so its owner waits forever.
// Either way the workers stop finishing. Each round is a fresh instance;
// one round hits the window most of the time, so the full run takes five.
func TestFCCleanupRacesEnlist(t *testing.T) {
	const n, per = 16, 200_000
	rounds := 5
	if testing.Short() {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		fc, state := counterFC(1, 1) // one scan, cleanup every session
		fc.maxIdleAge = 0            // unlink anything idle at all
		done := make(chan struct{})
		go func() {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					h := fc.NewHandle(id)
					for k := 0; k < per; k++ {
						h.Apply(1)
					}
				}(i)
			}
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: workers stalled: a publication-list cycle or a lost record", r)
		}
		if *state != n*per {
			t.Fatalf("round %d: state = %d, want %d", r, *state, n*per)
		}
		seen := map[*record[uint64, uint64]]bool{}
		for rec := fc.head.Load(); rec != nil; rec = rec.next.Load() {
			if seen[rec] {
				t.Fatalf("round %d: publication list has a cycle", r)
			}
			seen[rec] = true
		}
	}
}
