package lsim

import "testing"

// TestLSimRoundOrderAcrossWords pins helper determinism under the word-wide
// round: at n = 130 (three bit-vector words), operations announced by pids
// in every word land in ONE round, and the round applies them in ascending
// pid order — the order every helper replays. One pid announces a vector,
// whose response row must then survive round-to-round forwarding through
// recycled records, and must be replaced by a row of one once that pid's
// next single operation is served.
func TestLSimRoundOrderAcrossWords(t *testing.T) {
	const n = 130
	l := New[uint64, uint64, uint64](n)
	a := l.NewRootItem(0)
	add := func(m *cnt, arg uint64) uint64 {
		v := m.Read(a)
		m.Write(a, v+arg)
		return v
	}

	// Announce and join by hand, without attempting: pids 3 (word 0), 70
	// (word 1, a vector of three) and 129 (word 2) stay pending until a
	// helper's round applies them.
	l.announce.Publish(3, []lop[uint64, uint64, uint64]{{fn: add, arg: 1}})
	l.announce.Publish(70, []lop[uint64, uint64, uint64]{{fn: add, arg: 10}, {fn: add, arg: 100}, {fn: add, arg: 1000}})
	l.announce.Publish(129, []lop[uint64, uint64, uint64]{{fn: add, arg: 10000}})
	for _, q := range []int{3, 70, 129} {
		l.members[q].Join()
	}
	// pid 64 (word 1, between 3 and 70) helps: its first round publishes the
	// active set, its second applies all four announcements together.
	if got := l.ApplyOp(64, add, 100000); got != 1 {
		t.Fatalf("pid 64 response = %d, want 1 (only pid 3 before it)", got)
	}
	for _, q := range []int{3, 70, 129} {
		l.members[q].Leave()
	}

	// Ascending pid order: 3, 64, 70 (its vector in order), 129.
	if got := l.Rvals(3); got != 0 {
		t.Errorf("pid 3 response = %d, want 0", got)
	}
	if got := l.Rvals(129); got != 1+100000+10+100+1000 {
		t.Errorf("pid 129 response = %d, want %d", got, 1+100000+10+100+1000)
	}
	row := func() []uint64 {
		ls, s := l.haz.AcquireAnon(&l.state)
		defer l.haz.ReleaseAnon(s)
		return append([]uint64(nil), ls.res.Row(70)...)
	}
	want := []uint64{100001, 100011, 100111}
	check := func(when string, want []uint64) {
		t.Helper()
		got := row()
		if len(got) != len(want) {
			t.Fatalf("%s: pid 70 response row = %v, want %v", when, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pid 70 response row = %v, want %v", when, got, want)
			}
		}
	}
	check("after its round", want)
	const sum = 1 + 100000 + 10 + 100 + 1000 + 10000
	if got := a.Current(); got != sum {
		t.Fatalf("item = %d, want %d: some op was lost or applied twice", got, sum)
	}

	// Later rounds from other words forward the row through recycled
	// records, untouched.
	for i := 0; i < 4*n; i++ {
		l.ApplyOp(i%2*128, add, 0) // pids 0 and 128
	}
	check("forwarded", want)

	// pid 70's next single operation replaces its row with a row of one; no
	// recycled record may bring the stale three-element row back.
	if got := l.ApplyOp(70, add, 0); got != sum {
		t.Fatalf("pid 70 single op = %d, want %d", got, sum)
	}
	for i := 0; i < 4*n; i++ {
		l.ApplyOp(i%3*64, add, 0) // pids 0, 64, 128
		check("after a single op", []uint64{sum})
	}
	if got := a.Current(); got != sum {
		t.Fatalf("item = %d, want %d", got, sum)
	}
}
