package collect

import (
	"fmt"
	"slices"
	"testing"
)

// TestRowsAgainstMapModel drives Rows through serve, forward and rounds of
// serve-after-forward against a reference model (a map from process to row),
// then forwards the result back into the recycled source record, and checks
// every process's row, the live and long bitsets and that no row shares
// storage with the record it was forwarded from.
func TestRowsAgainstMapModel(t *testing.T) {
	type rowMap map[int][]uint64
	cases := []struct {
		name  string
		n     int
		src   rowMap   // served into the source record
		stale rowMap   // served into the destination before it is reused
		serve []rowMap // served into the destination after Forward, in turn
	}{
		{name: "empty", n: 4},
		{name: "serve one row of one", n: 4, serve: []rowMap{{2: {5}}}},
		{name: "forward live rows", n: 4, src: rowMap{0: {1}, 3: {4, 5, 6}}},
		{name: "serve replaces a forwarded row", n: 4,
			src: rowMap{1: {1, 2, 3}, 2: {9}}, serve: []rowMap{{1: {7}}}},
		{name: "serve an empty row", n: 4,
			src: rowMap{1: {1, 2}}, serve: []rowMap{{1: {}}}},
		{name: "recycled record with stale rows", n: 4,
			src: rowMap{1: {1, 2}}, stale: rowMap{1: {7, 7, 7}, 2: {7}, 3: {7, 7}}},
		{name: "rows across bitset words", n: 130,
			src:   rowMap{0: {1}, 1: {1, 2}, 63: {63}, 64: {64, 65}, 127: {7, 8, 9}, 129: {129}},
			stale: rowMap{1: {7, 7, 7}, 2: {7}, 65: {7}, 128: {7}, 129: {7, 7}},
			serve: []rowMap{{63: {}, 65: {1}, 128: {2, 3}}}},
		{name: "rows grow past one and shrink back across bitset words", n: 130,
			src:   rowMap{0: {1}, 63: {2, 3}, 64: {4}, 129: {5}},
			stale: rowMap{63: {7}, 64: {7, 7}, 128: {7, 7, 7}},
			serve: []rowMap{
				{0: {1, 2, 3}, 63: {6}, 64: {4, 5}, 129: {5, 6}},
				{0: {9}, 63: {6, 7, 8, 9}, 64: {}, 127: {1, 2}, 129: {8}},
				{0: {}, 63: {1}, 64: {3, 4}, 127: {2}, 128: {1, 2}},
				{0: {4, 5}, 63: {}, 64: {6}, 127: {}, 128: {3}, 129: {}},
			}},
	}
	serve := func(r *Rows[uint64], m rowMap) {
		for k, row := range m {
			r.Serve(k, append(r.Buf(k), row...))
		}
	}
	check := func(t *testing.T, what string, r *Rows[uint64], n int, want rowMap) {
		t.Helper()
		for k := 0; k < n; k++ {
			got := r.Row(k)
			if !slices.Equal(got, want[k]) {
				t.Fatalf("%s: row %d = %v, want %v", what, k, got, want[k])
			}
			if r.live.Bit(k) != (len(want[k]) > 0) || r.long.Bit(k) != (len(want[k]) > 1) {
				t.Fatalf("%s: live bit %d = %v, long bit %v with row %v", what, k, r.live.Bit(k), r.long.Bit(k), got)
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, dst := NewRows[uint64](c.n), NewRows[uint64](c.n)
			serve(&src, c.src)
			serve(&dst, c.stale)
			check(t, "source", &src, c.n, c.src)
			check(t, "recycled destination", &dst, c.n, c.stale)

			dst.Forward(&src)
			check(t, "forwarded", &dst, c.n, c.src)
			noShared(t, &dst, &src, c.n)

			want := rowMap{}
			for k, row := range c.src {
				want[k] = row
			}
			for i, step := range c.serve {
				serve(&dst, step)
				for k, row := range step {
					want[k] = row
				}
				check(t, fmt.Sprintf("served step %d", i), &dst, c.n, want)
				check(t, "source after the destination's serves", &src, c.n, c.src)
			}

			src.Forward(&dst)
			check(t, "forwarded back into the recycled source", &src, c.n, want)
			noShared(t, &src, &dst, c.n)
		})
	}
}

// noShared fails the test if a non-empty row of dst shares its backing
// array with the same row of src.
func noShared(t *testing.T, dst, src *Rows[uint64], n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		if got, from := dst.Row(k), src.Row(k); len(got) > 0 && len(from) > 0 && &got[0] == &from[0] {
			t.Fatalf("row %d shares its backing array with the source record", k)
		}
	}
}

// TestRowsSteadyStateAllocs: rows that grow past one and shrink back,
// forwarded between two records round after round, allocate nothing once
// each record has held its longest rows.
func TestRowsSteadyStateAllocs(t *testing.T) {
	const n = 130
	a, b := NewRows[uint64](n), NewRows[uint64](n)
	round := 0
	step := func() {
		src, dst := &a, &b
		if round%2 == 1 {
			src, dst = dst, src
		}
		dst.Forward(src)
		for _, k := range []int{0, 63, 64, 129} {
			row := dst.Buf(k)
			for i := 0; i <= (round+k)%4; i++ {
				row = append(row, uint64(i))
			}
			dst.Serve(k, row)
		}
		round++
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("allocs per round = %v, want 0", got)
	}
}
