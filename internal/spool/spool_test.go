package spool

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func ev(payload uint64, ts int64) Event { return Event{Payload: payload, TS: ts} }

func TestAppendAssignsContiguousOffsets(t *testing.T) {
	s := NewEvents(1, Config{SegEvents: 4})
	for i := 0; i < 10; i++ {
		off := s.Append(0, ev(uint64(100+i), int64(i)))
		if off != uint64(i) {
			t.Fatalf("append %d assigned offset %d", i, off)
		}
	}
	v := s.Snapshot()
	if v.LowWater() != 0 || v.End() != 10 || v.Len() != 10 {
		t.Fatalf("view lwm=%d end=%d len=%d, want 0,10,10", v.LowWater(), v.End(), v.Len())
	}
	if v.Segments() != 2 { // 10 events, SegEvents=4: two sealed, two active
		t.Fatalf("sealed segments = %d, want 2", v.Segments())
	}
	evs, next, skipped := v.Read(0, 100, nil)
	if len(evs) != 10 || next != 10 || skipped != 0 {
		t.Fatalf("read: %d events next=%d skipped=%d", len(evs), next, skipped)
	}
	for i, e := range evs {
		if e.Payload != uint64(100+i) {
			t.Fatalf("event %d payload %d, want %d", i, e.Payload, 100+i)
		}
	}
}

func TestTimeBucketSealing(t *testing.T) {
	s := NewEvents(1, Config{SegEvents: 1000, BucketNs: 10})
	for i := 0; i < 6; i++ {
		s.Append(0, ev(uint64(i), int64(i*5))) // ts 0,5,10,15,20,25
	}
	v := s.Snapshot()
	// Buckets of width 10ns: [0,5] [10,15] [20,25] — two sealed, one active.
	if v.Segments() != 2 {
		t.Fatalf("sealed segments = %d, want 2 (time-bucketed)", v.Segments())
	}
	if v.Len() != 6 {
		t.Fatalf("retained %d events, want 6", v.Len())
	}
}

func TestSealedRingBoundAdvancesWatermark(t *testing.T) {
	s := NewEvents(1, Config{SegEvents: 2, MaxSegments: 2})
	for i := 0; i < 10; i++ { // 5 potential segments of 2; ring keeps 2 + active
		s.Append(0, ev(uint64(i), int64(i)))
	}
	v := s.Snapshot()
	if v.Segments() != 2 {
		t.Fatalf("sealed segments = %d, want ring bound 2", v.Segments())
	}
	if v.LowWater() == 0 {
		t.Fatal("ring bound exceeded but low watermark did not advance")
	}
	// Retained range still contiguous and readable.
	evs, next, skipped := v.Read(0, 100, nil)
	if skipped != v.LowWater() || next != 10 {
		t.Fatalf("read skipped=%d next=%d, want %d,10", skipped, next, v.LowWater())
	}
	for i, e := range evs {
		if e.Payload != v.LowWater()+uint64(i) {
			t.Fatalf("event %d payload %d, want %d", i, e.Payload, v.LowWater()+uint64(i))
		}
	}
}

func TestTrimToTrimsActiveInPlace(t *testing.T) {
	s := NewEvents(1, Config{SegEvents: 100})
	for i := 0; i < 10; i++ {
		s.Append(0, ev(uint64(i), int64(i)))
	}
	if lwm := s.Do(0, TrimToOp[Event](7)); lwm != 7 {
		t.Fatalf("TrimTo(7) returned lwm %d, want 7 (exact within active)", lwm)
	}
	v := s.Snapshot()
	if v.LowWater() != 7 || v.Len() != 3 {
		t.Fatalf("after trim: lwm=%d len=%d, want 7,3", v.LowWater(), v.Len())
	}
	evs, _, _ := v.Read(0, 100, nil)
	if len(evs) != 3 || evs[0].Payload != 7 {
		t.Fatalf("read after trim: %d events first=%v", len(evs), evs)
	}
}

func TestTrimAgeAndSealAged(t *testing.T) {
	s := NewEvents(1, Config{SegEvents: 3})
	for i := 0; i < 7; i++ { // segments [0..2](ts 0..2) [3..5](ts 3..5), active [6](ts 6)
		s.Append(0, ev(uint64(i), int64(i)))
	}
	// Age out everything before ts 6: the aged active head is first sealed,
	// then dropped with the older segments — one linearizable vector.
	lwm := s.Do(0, SealAgedOp[Event](6), TrimAgeOp[Event](6))
	if lwm != 6 {
		t.Fatalf("age trim lwm=%d, want 6", lwm)
	}
	v := s.Snapshot()
	if v.Len() != 1 {
		t.Fatalf("retained %d events after age trim, want 1", v.Len())
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	s := NewEvents(1, Config{SegEvents: 4})
	for i := 0; i < 6; i++ {
		s.Append(0, ev(uint64(i), int64(i)))
	}
	v := s.Snapshot()
	before, _, _ := v.Read(0, 100, nil)
	// Mutate heavily after the snapshot: appends, seals, trims.
	for i := 6; i < 50; i++ {
		s.Append(0, ev(uint64(i), int64(i)))
	}
	s.Do(0, SealOp[Event](), TrimToOp[Event](40))
	after, _, _ := v.Read(0, 100, nil)
	if len(before) != len(after) {
		t.Fatalf("snapshot changed size: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot event %d changed: %v -> %v", i, before[i], after[i])
		}
	}
	if len(after) != 6 || after[5].Payload != 5 {
		t.Fatalf("snapshot content wrong: %v", after)
	}
}

func TestConcurrentAppendersKeepOffsetsUnique(t *testing.T) {
	const (
		n   = 4
		per = 512
	)
	s := NewEvents(n, Config{SegEvents: 64, MaxSegments: 1 << 20})
	offs := make([][]uint64, n)
	// A consumer reads the live state in place (Spool.Read) meanwhile: it
	// must see every offset once, with each producer's events in order.
	readErr := make(chan string, 1)
	go func() {
		defer close(readErr)
		var out []Event
		last := make([]int64, n)
		for i := range last {
			last[i] = -1
		}
		for cursor := uint64(0); cursor < n*per; {
			evs, next, skipped := s.Read(cursor, 64, out[:0])
			if skipped != 0 || next != cursor+uint64(len(evs)) {
				readErr <- fmt.Sprintf("read at %d: %d events, next %d, skipped %d", cursor, len(evs), next, skipped)
				return
			}
			for _, e := range evs {
				k := int64(e.Payload & 0xFFFFFFFF)
				if k <= last[e.Producer] {
					readErr <- fmt.Sprintf("producer %d event %d read after %d", e.Producer, k, last[e.Producer])
					return
				}
				last[e.Producer] = k
			}
			cursor, out = next, evs
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			batch := make([]Event, 0, 8)
			out := make([]uint64, 0, 8)
			for k := 0; k < per; k += 8 {
				batch = batch[:0]
				for j := 0; j < 8; j++ {
					batch = append(batch, Event{Payload: uint64(id)<<32 | uint64(k+j), Producer: int32(id)})
				}
				out = s.AppendBatch(id, batch, out[:0])
				offs[id] = append(offs[id], out...)
			}
		}(i)
	}
	wg.Wait()
	if msg, bad := <-readErr; bad {
		t.Fatal(msg)
	}
	seen := make(map[uint64]bool)
	for id := range offs {
		for i, o := range offs[id] {
			if seen[o] {
				t.Fatalf("offset %d assigned twice", o)
			}
			seen[o] = true
			// Batches linearize contiguously per chunk, so each producer's
			// own offsets are strictly increasing.
			if i > 0 && o <= offs[id][i-1] {
				t.Fatalf("producer %d offsets not increasing: %d then %d", id, offs[id][i-1], o)
			}
		}
	}
	if len(seen) != n*per {
		t.Fatalf("assigned %d offsets, want %d", len(seen), n*per)
	}
	v := s.Snapshot()
	if v.End() != uint64(n*per) || v.Len() != n*per {
		t.Fatalf("view end=%d len=%d, want %d", v.End(), v.Len(), n*per)
	}
}

func TestViewReadWindows(t *testing.T) {
	s := NewEvents(1, Config{SegEvents: 4})
	for i := 0; i < 10; i++ {
		s.Append(0, ev(uint64(i), int64(i)))
	}
	v := s.Snapshot()
	out := make([]Event, 0, 3)
	cursor := uint64(0)
	var got []uint64
	for {
		evs, next, _ := v.Read(cursor, 3, out[:0])
		if len(evs) == 0 {
			break
		}
		if next != cursor+uint64(len(evs)) {
			t.Fatalf("next=%d after cursor=%d +%d events", next, cursor, len(evs))
		}
		for _, e := range evs {
			got = append(got, e.Payload)
		}
		cursor = next
	}
	if len(got) != 10 {
		t.Fatalf("windowed read returned %d events, want 10", len(got))
	}
	for i, p := range got {
		if p != uint64(i) {
			t.Fatalf("windowed read out of order at %d: %v", i, got)
		}
	}
	// Reading from the future returns nothing and keeps the cursor.
	if evs, next, skipped := v.Read(99, 10, nil); len(evs) != 0 || next != 99 || skipped != 0 {
		t.Fatalf("future read: %d events next=%d skipped=%d", len(evs), next, skipped)
	}
}

// TestNewRefusesUnboundedPrealloc: preallocation is reserved up front, so a
// request beyond MaxPreallocEvents must fail loudly at construction instead
// of exhausting memory.
func TestNewRefusesUnboundedPrealloc(t *testing.T) {
	New[Event](1, Config{PreallocEvents: MaxPreallocEvents}) // at the bound: fine
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "PreallocEvents") {
			t.Fatalf("New with PreallocEvents 1<<30: recovered %q, want a PreallocEvents panic", msg)
		}
	}()
	New[Event](1, Config{PreallocEvents: 1 << 30})
}

// TestReadMatchesSnapshotRead: Spool.Read reads the live state in place, so
// over random append/seal/trim histories it must return exactly what a
// cloned snapshot's Read returns — for cursors below the low watermark
// (ranges lost to retention), inside every segment, and past the end — and
// allocate nothing when out has room.
func TestReadMatchesSnapshotRead(t *testing.T) {
	s := NewEvents(1, Config{SegEvents: 8, MaxSegments: 4})
	seed := uint64(0x9e3779b97f4a7c15)
	rnd := func(n uint64) uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed % n
	}
	var ts int64
	out := make([]Event, 0, 64)
	for step := 0; step < 400; step++ {
		switch k := rnd(10); {
		case k < 6:
			for i := rnd(12); i > 0; i-- {
				ts++
				s.Append(0, ev(uint64(ts), ts))
			}
		case k < 7:
			s.Seal(0)
		case k < 8:
			s.Do(0, TrimToOp[Event](s.Snapshot().LowWater()+rnd(10)))
		default:
			s.Do(0, TrimSegmentsOp[Event](int(rnd(3))))
		}
		v := s.Snapshot()
		for _, cursor := range []uint64{0, v.LowWater(), v.LowWater() + rnd(20), v.End(), v.End() + 3} {
			max := 1 + int(rnd(40))
			want, wnext, wskip := v.Read(cursor, max, nil)
			got, next, skip := s.Read(cursor, max, out[:0])
			if next != wnext || skip != wskip || len(got) != len(want) {
				t.Fatalf("step %d cursor %d max %d: Read = (%d events, next %d, skipped %d), snapshot = (%d, %d, %d)",
					step, cursor, max, len(got), next, skip, len(want), wnext, wskip)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d cursor %d: event %d = %+v, snapshot %+v", step, cursor, i, got[i], want[i])
				}
			}
		}
	}
	cursor := s.Snapshot().LowWater()
	if a := testing.AllocsPerRun(100, func() { out, _, _ = s.Read(cursor, 64, out[:0]) }); a != 0 {
		t.Fatalf("Read with a reused out: %v allocs/op, want 0", a)
	}
}
