package simmap

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/check"
)

// TestMapGetDuringWrites: wait-free Gets run full speed against writers; a
// Get for a key written once and never deleted must never miss after the
// write completes.
func TestMapGetDuringWrites(t *testing.T) {
	const writers, per = 4, 300
	m := New[uint64, uint64](writers, 4)
	m.Put(0, 9999, 1) // the stable key

	stop := make(chan struct{})
	errs := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := m.Get(9999); !ok {
				select {
				case errs <- "stable key vanished during unrelated writes":
				default:
				}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				m.Put(id, uint64(id*per+k), uint64(k))
				m.Delete(id, uint64(id*per+k))
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestMapPrefixSharing: updating one key must not disturb other keys in the
// same stripe (a write copies its key's trie path and shares every other
// node with the previous state).
func TestMapPrefixSharing(t *testing.T) {
	m := New[int, int](1, 1) // everything in one stripe's trie
	for k := 0; k < 10; k++ {
		m.Put(0, k, k*10)
	}
	m.Put(0, 5, 999)   // overwrite in place
	m.Delete(0, 0)     // another trie position
	m.Put(0, 42, 4242) // fresh key
	for k := 1; k < 10; k++ {
		want := k * 10
		if k == 5 {
			want = 999
		}
		if v, ok := m.Get(k); !ok || v != want {
			t.Fatalf("key %d = (%d,%v), want %d", k, v, ok, want)
		}
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("deleted key still present")
	}
	if v, _ := m.Get(42); v != 4242 {
		t.Fatal("fresh key lost")
	}
}

// TestMapDeleteHeadMiddleTail deletes a one-stripe map's keys one by one
// down to an empty trie, checking the remainder after each step.
func TestMapDeleteHeadMiddleTail(t *testing.T) {
	m := New[int, int](1, 1)
	for k := 1; k <= 3; k++ {
		m.Put(0, k, k)
	}
	// Trie positions are hash-dependent; delete all three one by one and
	// verify the remainder after each step.
	m.Delete(0, 2)
	if _, ok := m.Get(2); ok {
		t.Fatal("middle delete failed")
	}
	if v, _ := m.Get(1); v != 1 {
		t.Fatal("neighbor lost after middle delete")
	}
	m.Delete(0, 1)
	m.Delete(0, 3)
	if m.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", m.Len())
	}
}

// TestMapStripeRouting: keys route deterministically — the same key always
// lands on the same stripe (Put then Get round-trips for many keys).
func TestMapStripeRouting(t *testing.T) {
	m := New[string, int](1, 16)
	keys := []string{"", "a", "b", "ab", "ba", "hello", "world", "κλειδί", "🔑"}
	for i, k := range keys {
		m.Put(0, k, i)
	}
	for i, k := range keys {
		if v, ok := m.Get(k); !ok || v != i {
			t.Fatalf("key %q = (%d,%v), want %d", k, v, ok, i)
		}
	}
}

// TestMapLinearizablePartitioned: a longer concurrent history checked
// per-key with the partitioned checker (sound because every map operation
// touches exactly one key).
func TestMapLinearizablePartitioned(t *testing.T) {
	const n, per, keys = 4, 10, 3
	m := New[uint64, uint64](n, 2)
	rec := check.NewRecorder(n * per)
	slotKey := make([]uint64, n*per) // key of the op recorded in each slot
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			seed := uint64(id) + 1
			for k := 0; k < per; k++ {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				key := seed % keys
				if seed%2 == 0 {
					v := seed % 1000 // writes are small distinct-ish values
					slot := rec.Invoke(id, check.OpWrite, v)
					slotKey[slot] = key
					m.Put(id, key, v)
					rec.Return(slot, 0, false)
				} else {
					slot := rec.Invoke(id, check.OpRead, 0)
					slotKey[slot] = key
					got, _ := m.Get(key)
					rec.Return(slot, got, false)
				}
			}
		}(i)
	}
	wg.Wait()
	ops := rec.Operations()
	// The recorder's slot order matches ops order (slot i -> ops[i]).
	keyOf := make(map[int64]uint64, len(ops))
	for i, o := range ops {
		keyOf[o.Invoke] = slotKey[i]
	}
	partOf := func(o check.Operation) string {
		return fmt.Sprintf("k%d", keyOf[o.Invoke])
	}
	spec := func(string) check.Spec { return check.RegisterSpec(0) }
	if ok, err := check.LinearizablePartitioned(ops, partOf, spec); err != nil {
		t.Fatalf("linearizability search: %v", err)
	} else if !ok {
		t.Fatal("per-key history not linearizable")
	}
}
