package collect

import (
	"slices"
	"testing"
)

// TestRowsAgainstMapModel drives Rows through serve, forward and
// serve-after-forward against a reference model (a map from process to row)
// and checks every process's row, the live bitset and that no row shares
// storage with the record it was forwarded from.
func TestRowsAgainstMapModel(t *testing.T) {
	type rowMap map[int][]uint64
	cases := []struct {
		name  string
		n     int
		src   rowMap // served into the source record
		stale rowMap // served into the destination before it is reused
		serve rowMap // served into the destination after Forward
	}{
		{name: "empty", n: 4},
		{name: "serve one row of one", n: 4, serve: rowMap{2: {5}}},
		{name: "forward live rows", n: 4, src: rowMap{0: {1}, 3: {4, 5, 6}}},
		{name: "serve replaces a forwarded row", n: 4,
			src: rowMap{1: {1, 2, 3}, 2: {9}}, serve: rowMap{1: {7}}},
		{name: "serve an empty row", n: 4,
			src: rowMap{1: {1, 2}}, serve: rowMap{1: {}}},
		{name: "recycled record with stale rows", n: 4,
			src: rowMap{1: {1, 2}}, stale: rowMap{1: {7, 7, 7}, 2: {7}, 3: {7, 7}}},
		{name: "rows across bitset words", n: 130,
			src:   rowMap{0: {1}, 1: {1, 2}, 63: {63}, 64: {64, 65}, 127: {7, 8, 9}, 129: {129}},
			stale: rowMap{1: {7, 7, 7}, 2: {7}, 65: {7}, 128: {7}, 129: {7, 7}},
			serve: rowMap{63: {}, 65: {1}, 128: {2, 3}}},
	}
	serve := func(r *Rows[uint64], m rowMap) {
		for k, row := range m {
			r.Serve(k, append(r.Row(k)[:0], row...))
		}
	}
	check := func(t *testing.T, what string, r *Rows[uint64], n int, want rowMap) {
		t.Helper()
		for k := 0; k < n; k++ {
			got := r.Row(k)
			if !slices.Equal(got, want[k]) {
				t.Fatalf("%s: row %d = %v, want %v", what, k, got, want[k])
			}
			if r.live.Bit(k) != (len(want[k]) > 0) {
				t.Fatalf("%s: live bit %d = %v with row %v", what, k, r.live.Bit(k), got)
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
			for k := range c.src {
				if got, from := dst.Row(k), src.Row(k); len(got) > 0 && &got[0] == &from[0] {
					t.Fatalf("row %d shares its backing array with the source record", k)
				}
			}

			serve(&dst, c.serve)
			want := rowMap{}
			for k, row := range c.src {
				want[k] = row
			}
			for k, row := range c.serve {
				want[k] = row
			}
			check(t, "served", &dst, c.n, want)
			check(t, "source after the destination's serves", &src, c.n, c.src)
		})
	}
}
