package simmap

import (
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/check/v2"
)

// The tests in this file check a map sharded across many stripes, each an
// independent P-Sim instance: a key belongs to one stripe, and a multi-key
// call runs one combining round per touched stripe.

// TestShardedCrossShardPerKeyLinearizable hammers a 32-stripe map with
// cross-stripe MSet/MGet/MDelete batches from six processes, recording
// every batch element as its own operation spanning the call's window, and
// validates the full history with the compositional per-key checker. The
// key space is wide enough that every batch straddles several stripes, so
// the test exercises the stripe fan-out path (group → per-stripe combining
// round → scatter), not just single-stripe batching. The forward engine
// makes the whole multi-thousand-op history checkable in one pass.
func TestShardedCrossShardPerKeyLinearizable(t *testing.T) {
	const (
		threads = 6
		keys    = 48
		calls   = 40
		batch   = 8
	)
	m := New[uint64, uint64](threads, 32)
	if m.Stripes() != 32 {
		t.Fatalf("Stripes() = %d, want 32", m.Stripes())
	}
	rec := check.NewRecorder(2 * threads * calls * batch)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			seed := uint64(id)*2654435761 + 12345
			next := func() uint64 {
				seed = seed*6364136223846793005 + 1442695040888963407
				return seed >> 33
			}
			kv := make([]uint64, batch)
			vv := make([]uint64, batch)
			slots := make([]int, batch)
			for c := 0; c < calls; c++ {
				for j := range kv {
					kv[j] = next() % keys
					vv[j] = next()%1000 + 1
				}
				switch c % 3 {
				case 0:
					for j := range kv {
						slots[j] = rec.Invoke(id, check.OpMapPut, kv[j]<<32|vv[j])
					}
					prevs, existed := m.MSet(id, kv, vv)
					for j := range slots {
						rec.Return(slots[j], prevs[j], existed[j])
					}
				case 1:
					for j := range kv {
						slots[j] = rec.Invoke(id, check.OpMapGet, kv[j]<<32)
					}
					gv, gok := m.MGet(id, kv)
					for j := range slots {
						rec.Return(slots[j], gv[j], gok[j])
					}
				default:
					for j := range kv {
						slots[j] = rec.Invoke(id, check.OpMapDel, kv[j]<<32)
					}
					prevs, existed := m.MDelete(id, kv)
					for j := range slots {
						rec.Return(slots[j], prevs[j], existed[j])
					}
				}
			}
		}(i)
	}
	wg.Wait()

	h := rec.Operations()
	if len(h) != threads*calls*batch {
		t.Fatalf("recorded %d operations, want %d", len(h), threads*calls*batch)
	}
	if err := v2.CheckHistory(h, v2.DefaultOptions()); err != nil {
		t.Fatalf("cross-stripe history not per-key linearizable: %v", err)
	}
}

// TestShardedSmallHistoryAllEnginesAgree records a small cross-stripe
// history and checks it through every engine and both partition modes: the
// forward engine, the Wing–Gong search, their cross-validating combination,
// and the whole-map single-state spec. By Herlihy–Wing locality all of
// them must return the same verdict.
func TestShardedSmallHistoryAllEnginesAgree(t *testing.T) {
	m := New[uint64, uint64](3, 16)
	rec := check.NewRecorder(2 * 3 * 4)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			kv := []uint64{uint64(id), uint64(id+1) % 4, uint64(id+2) % 4, uint64(id+3) % 4}
			vv := []uint64{uint64(10 + id), uint64(20 + id), uint64(30 + id), uint64(40 + id)}
			slots := make([]int, len(kv))
			for j := range kv {
				slots[j] = rec.Invoke(id, check.OpMapPut, kv[j]<<32|vv[j])
			}
			prevs, existed := m.MSet(id, kv, vv)
			for j := range slots {
				rec.Return(slots[j], prevs[j], existed[j])
			}
			for j := range kv {
				slots[j] = rec.Invoke(id, check.OpMapGet, kv[j]<<32)
			}
			gv, gok := m.MGet(id, kv)
			for j := range slots {
				rec.Return(slots[j], gv[j], gok[j])
			}
		}(i)
	}
	wg.Wait()

	h := rec.Operations()
	for _, eng := range []v2.Engine{v2.EngineForward, v2.EngineSearch, v2.EngineBoth} {
		for _, part := range []bool{true, false} {
			opts := v2.DefaultOptions()
			opts.Engine = eng
			opts.Partition = part
			if err := v2.CheckHistory(h, opts); err != nil {
				t.Fatalf("engine=%v partition=%v: %v\nhistory:\n%s", eng, part, err, v2.FormatHistory(h))
			}
		}
	}
}

// TestShardedDisjointOwnersReadOwnWrites pins the deterministic corner of
// the contract: with one writer per key, a cross-stripe MGet issued by the
// writer after its own MSet must observe exactly what it wrote.
func TestShardedDisjointOwnersReadOwnWrites(t *testing.T) {
	const threads = 4
	m := New[uint64, uint64](threads, 32)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			keys := make([]uint64, 16)
			vals := make([]uint64, 16)
			for j := range keys {
				keys[j] = uint64(id*16 + j)
				vals[j] = keys[j]*7 + 1
			}
			m.MSet(id, keys, vals)
			got, ok := m.MGet(id, keys)
			for j := range keys {
				if !ok[j] || got[j] != vals[j] {
					t.Errorf("process %d key %d: got (%d,%v) want (%d,true)", id, keys[j], got[j], ok[j], vals[j])
				}
			}
		}(i)
	}
	wg.Wait()
}
