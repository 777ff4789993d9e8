package collect

import "testing"

// The paper's step-complexity claims as micro-benchmarks: update is ONE
// Fetch&Add regardless of n; collect costs one load per backing word.

func BenchmarkUpdate(b *testing.B) {
	c := NewSimCollect(8, 8)
	u := c.Updater(3)
	for i := 0; i < b.N; i++ {
		u.Update(uint64(i) & 0xFF)
	}
}

func BenchmarkCollect(b *testing.B) {
	for _, cfg := range []struct {
		name string
		n, d int
	}{
		{"1word", 8, 8},
		{"4words", 32, 8},
		{"16words", 128, 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			c := NewSimCollect(cfg.n, cfg.d)
			dst := make([]uint64, cfg.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.CollectInto(dst)
			}
		})
	}
}

func BenchmarkActSetJoinLeave(b *testing.B) {
	a := NewActSet(64)
	m := a.Member(9)
	for i := 0; i < b.N; i++ {
		m.Join()
		m.Leave()
	}
}

func BenchmarkAnnounceWriteRead(b *testing.B) {
	a := NewAnnounce[uint64](8)
	v := uint64(42)
	for i := 0; i < b.N; i++ {
		a.Write(3, &v)
		_ = a.Read(3)
	}
}

// copySink keeps BenchmarkRowsForward's plain copy from being optimised
// away.
var copySink []uint64

// BenchmarkRowsForward: one round's forwarding of 64 live response rows.
// Rows of one cost one copy of the dense first-slot column plus the
// bitsets, so rows-of-one stays within 1.5x of copy, a plain copy of 64
// values (the paper's rvals copy); rows-of-four adds the per-row cost of
// rows that live in storage of their own.
func BenchmarkRowsForward(b *testing.B) {
	const n = 64
	b.Run("copy", func(b *testing.B) {
		src := make([]uint64, n)
		copySink = make([]uint64, n)
		for i := 0; i < b.N; i++ {
			copy(copySink, src)
		}
	})
	for _, rows := range []struct {
		name  string
		width int
	}{{"rows-of-one", 1}, {"rows-of-four", 4}} {
		b.Run(rows.name, func(b *testing.B) {
			src, dst := NewRows[uint64](n), NewRows[uint64](n)
			for k := 0; k < n; k++ {
				row := src.Buf(k)
				for j := 0; j < rows.width; j++ {
					row = append(row, uint64(k+j))
				}
				src.Serve(k, row)
			}
			dst.Forward(&src)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.Forward(&src)
			}
		})
	}
}
