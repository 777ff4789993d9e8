package simmap

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/check/v2"
	"repro/internal/obs"
)

// blobPayload builds a deterministic value of the given size whose 32-bit
// token is recoverable from the stored bytes — the recorded histories talk
// tokens, the map talks bytes. size must be >= 4.
func blobPayload(token uint32, size int) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint32(b, token)
	for i := 4; i < size; i++ {
		b[i] = byte(token>>uint((i%4)*8)) ^ byte(i)
	}
	return b
}

func blobToken(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// TestTieredBasic exercises routing, tier moves in both directions, and the
// per-tier counters, single-threaded so every intermediate state is exact.
func TestTieredBasic(t *testing.T) {
	const threshold = 64
	m := NewTiered[string](2, 4, threshold)
	if m.Threshold() != threshold {
		t.Fatalf("Threshold() = %d, want %d", m.Threshold(), threshold)
	}

	small := blobPayload(1, threshold-1)
	large := blobPayload(2, threshold)
	huge := blobPayload(3, 4*threshold)

	if existed := m.Put(0, "k", small); existed {
		t.Fatal("first put reported existed")
	}
	if v, ok := m.Get("k"); !ok || blobToken(v) != 1 {
		t.Fatalf("get after small put = %v, %v", v, ok)
	}
	// Small -> large tier move: the binding swings to an item.
	if existed := m.Put(0, "k", large); !existed {
		t.Fatal("tier-move put reported !existed")
	}
	if v, ok := m.Get("k"); !ok || blobToken(v) != 2 || len(v) != threshold {
		t.Fatalf("get after large put = token %d len %d, %v", blobToken(v), len(v), ok)
	}
	// Large -> large overwrite: stays in the item, no map round.
	if existed := m.Put(1, "k", huge); !existed {
		t.Fatal("large overwrite reported !existed")
	}
	if v, ok := m.Get("k"); !ok || blobToken(v) != 3 || len(v) != 4*threshold {
		t.Fatalf("get after large overwrite = token %d len %d, %v", blobToken(v), len(v), ok)
	}
	// Large -> small tier move back.
	if existed := m.Put(0, "k", small); !existed {
		t.Fatal("move-back put reported !existed")
	}
	if v, ok := m.Get("k"); !ok || blobToken(v) != 1 {
		t.Fatalf("get after move back = %v, %v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", m.Len())
	}
	if existed := m.Delete(0, "k"); !existed {
		t.Fatal("delete reported !existed")
	}
	if _, ok := m.Get("k"); ok {
		t.Fatal("get after delete found a value")
	}
	if existed := m.Delete(0, "k"); existed {
		t.Fatal("second delete reported existed")
	}

	st := m.Stats()
	// Puts: small, large, large, small; deletes: one small-tier, one miss.
	if st.SmallOps != 4 || st.LargeOps != 2 {
		t.Fatalf("tier counters small=%d large=%d, want 4/2", st.SmallOps, st.LargeOps)
	}
	if st.Small.Ops == 0 {
		t.Fatal("small-tier engine recorded no ops")
	}
	if st.Large.Ops != 1 {
		t.Fatalf("large-tier engine ops = %d, want 1 (one in-tier overwrite)", st.Large.Ops)
	}
	if st.ItemsWritten == 0 {
		t.Fatal("no committed item write-backs recorded")
	}
}

// TestTieredThresholdBoundary pins the routing rule: len == threshold is
// large, len == threshold-1 is small.
func TestTieredThresholdBoundary(t *testing.T) {
	const threshold = 32
	m := NewTiered[uint64](1, 2, threshold)
	m.Put(0, 1, blobPayload(7, threshold-1))
	m.Put(0, 2, blobPayload(8, threshold))
	st := m.Stats()
	if st.SmallOps != 1 || st.LargeOps != 1 {
		t.Fatalf("tier counters small=%d large=%d, want 1/1", st.SmallOps, st.LargeOps)
	}
	if v, ok := m.Get(2); !ok || blobToken(v) != 8 {
		t.Fatalf("large-tier get = %v, %v", v, ok)
	}
}

// TestTieredRangeAndInstrument covers Range over mixed tiers and the
// registry wiring for both engines.
func TestTieredRangeAndInstrument(t *testing.T) {
	const threshold = 16
	m := NewTiered[uint64](2, 4, threshold)
	reg := obs.NewRegistry()
	m.Attach(reg, "tmap", obs.NewSimRecorder(reg, "tmap", 2), nil)
	for k := uint64(0); k < 10; k++ {
		size := 8
		if k%2 == 1 {
			size = threshold * 2
		}
		m.Put(0, k, blobPayload(uint32(100+k), size))
	}
	got := map[uint64]uint32{}
	m.Range(func(k uint64, v []byte) bool {
		got[k] = blobToken(v)
		return true
	})
	if len(got) != 10 {
		t.Fatalf("Range saw %d keys, want 10", len(got))
	}
	for k, tok := range got {
		if tok != uint32(100+k) {
			t.Fatalf("key %d: token %d, want %d", k, tok, 100+k)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"tmap_ops_total", "tmap_lsim_ops_total",
		"tmap_tier_small_ops_total", "tmap_tier_large_ops_total",
		"tmap_lsim_items_written_total",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("registry missing counter %q (have %v)", name, snap.Counters)
		}
	}
	if snap.Counters["tmap_tier_small_ops_total"] != 5 || snap.Counters["tmap_tier_large_ops_total"] != 5 {
		t.Fatalf("tier metric split = %d/%d, want 5/5",
			snap.Counters["tmap_tier_small_ops_total"], snap.Counters["tmap_tier_large_ops_total"])
	}
}

// TestTieredSoakHistory is the large-value-tier linearizability gate: a
// concurrent mixed small/large workload is recorded as blob-map operations
// (values as tokens) and the full history is validated per key against
// BlobKeySpec with EngineBoth — forward simulation and bounded search
// cross-checking every partition the search can reach. Sizes straddle the
// threshold so the soak constantly moves bindings between tiers, which is
// exactly the race the prev-less spec exists for (see the tiered.go package
// comment).
func TestTieredSoakHistory(t *testing.T) {
	const (
		threads   = 4
		keys      = 8
		per       = 250
		threshold = 48
	)
	m := NewTiered[uint64](threads, 4, threshold)
	rec := check.NewRecorder(threads * per)

	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			seed := uint64(id)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				seed = seed*6364136223846793005 + 1442695040888963407
				return seed >> 33
			}
			for c := 0; c < per; c++ {
				k := next() % keys
				switch r := next() % 10; {
				case r < 5: // put, half small / half large
					token := uint32(next()&0xffff + 1)
					size := 8 + int(next()%uint64(threshold-8))
					if next()%2 == 0 {
						size = threshold + int(next()%uint64(3*threshold))
					}
					slot := rec.Invoke(id, check.OpBlobPut, k<<32|uint64(token))
					existed := m.Put(id, k, blobPayload(token, size))
					rec.Return(slot, 0, existed)
				case r < 8: // get
					slot := rec.Invoke(id, check.OpBlobGet, k<<32)
					v, ok := m.Get(k)
					var tok uint64
					if ok {
						tok = uint64(blobToken(v))
					}
					rec.Return(slot, tok, ok)
				default: // delete
					slot := rec.Invoke(id, check.OpBlobDel, k<<32)
					existed := m.Delete(id, k)
					rec.Return(slot, 0, existed)
				}
			}
		}(i)
	}
	wg.Wait()

	h := rec.Operations()
	if len(h) != threads*per {
		t.Fatalf("recorded %d operations, want %d", len(h), threads*per)
	}
	for _, partition := range []bool{true, false} {
		opts := v2.DefaultOptions()
		opts.Engine = v2.EngineBoth
		opts.Partition = partition
		if err := v2.CheckHistory(h, opts); err != nil {
			t.Fatalf("partition=%v: mixed-tier history not linearizable: %v", partition, err)
		}
	}
	st := m.Stats()
	if st.SmallOps == 0 || st.LargeOps == 0 {
		t.Fatalf("soak did not exercise both tiers: small=%d large=%d", st.SmallOps, st.LargeOps)
	}
}
