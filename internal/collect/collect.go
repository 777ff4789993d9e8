// Package collect implements the Fetch&Add-based coordination objects of
// the paper's Section 3: SimCollect (a single-writer collect object with
// step complexity 1 for update and ⌈nd/b⌉ for collect), SimActSet (an
// active set over one bit per process), the linearizable single-word
// snapshot obtained when all components fit in one Fetch&Add word, and the
// announce array of single-writer registers that P-Sim substitutes for the
// collect object in practice (§4), in its batch form (BatchAnnounce:
// operation vectors in), with the per-process response rows that answer it
// (Rows: responses out).
package collect

import (
	"fmt"

	"repro/internal/xatomic"
)

// SimCollect is the paper's collect object: n components of d bits each,
// packed into ⌈nd/64⌉ Fetch&Add words (chunks never straddle words). Process
// i updates its component with ONE Fetch&Add — it adds the signed difference
// between the new and the previous value, shifted to its chunk; because the
// chunk always holds the writer's current value, the addition can neither
// carry nor borrow across chunk boundaries. Collect reads each word once.
//
// When n*d ≤ 64 the whole object is one word, every collect is an atomic
// snapshot, and the object is a linearizable single-writer snapshot
// (Theorem 3.1's b ≥ nd case); Snapshot() exposes that.
type SimCollect struct {
	n, d      int
	perWord   int // chunks per 64-bit word
	words     *xatomic.SharedBits
	chunkMask uint64
}

// NewSimCollect returns a collect object with n components of d bits each.
// d must be in [1, 64].
func NewSimCollect(n, d int) *SimCollect {
	if n < 1 {
		panic("collect: n must be >= 1")
	}
	if d < 1 || d > 64 {
		panic("collect: d must be in [1,64]")
	}
	perWord := 64 / d
	nwords := (n + perWord - 1) / perWord
	var mask uint64
	if d == 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1) << uint(d)) - 1
	}
	return &SimCollect{
		n: n, d: d, perWord: perWord,
		words:     xatomic.NewSharedBits(nwords * 64),
		chunkMask: mask,
	}
}

// N returns the number of components.
func (c *SimCollect) N() int { return c.n }

// D returns the width of each component in bits.
func (c *SimCollect) D() int { return c.d }

// Words returns the number of Fetch&Add words backing the object — the
// paper's ⌈nd/b⌉, and therefore the step complexity of collect.
func (c *SimCollect) Words() int { return c.words.Words() }

// Single reports whether the object fits in one word, in which case collect
// is an atomic snapshot (linearizable).
func (c *SimCollect) Single() bool { return c.Words() == 1 }

func (c *SimCollect) position(i int) (word int, shift uint) {
	return i / c.perWord, uint((i % c.perWord) * c.d)
}

// Updater is process i's single-writer handle. It remembers the previously
// written value (the paper's prev local variable) so each update is exactly
// one Fetch&Add.
type Updater struct {
	c     *SimCollect
	word  int
	shift uint
	prev  uint64
}

// Updater returns the handle for component i, which must be used by a single
// goroutine. The component starts at 0.
func (c *SimCollect) Updater(i int) *Updater {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("collect: component %d out of range [0,%d)", i, c.n))
	}
	w, s := c.position(i)
	return &Updater{c: c, word: w, shift: s}
}

// Update stores v (truncated to d bits) into the component with a single
// Fetch&Add of the signed difference. The difference is taken over the full
// word (two's complement) and then shifted to the chunk: because the chunk
// always holds the writer's previous value, the addition changes exactly the
// chunk — a positive difference cannot carry out (the result is < 2^d) and a
// negative one cannot borrow past the chunk (the chunk holds at least the
// subtracted amount).
func (u *Updater) Update(v uint64) {
	v &= u.c.chunkMask
	delta := (v - u.prev) << u.shift // full-word signed difference, shifted
	if delta != 0 {
		u.c.words.AddWord(u.word, delta)
	}
	u.prev = v
}

// Last returns the value this updater last wrote.
func (u *Updater) Last() uint64 { return u.prev }

// Collect reads every backing word once and returns the component values.
// It satisfies the collect regularity condition of §2 (not necessarily
// linearizable when Words() > 1).
func (c *SimCollect) Collect() []uint64 {
	out := make([]uint64, c.n)
	c.CollectInto(out)
	return out
}

// CollectInto is Collect without allocation; len(dst) must be ≥ n.
func (c *SimCollect) CollectInto(dst []uint64) {
	nw := c.Words()
	for w := 0; w < nw; w++ {
		word := c.words.LoadWord(w)
		base := w * c.perWord
		for j := 0; j < c.perWord; j++ {
			i := base + j
			if i >= c.n {
				break
			}
			dst[i] = (word >> uint(j*c.d)) & c.chunkMask
		}
	}
}

// Snapshot performs a linearizable scan. It panics unless the object fits in
// a single word (b ≥ nd), the condition under which the paper's SimCollect
// doubles as a single-writer snapshot.
func (c *SimCollect) Snapshot() []uint64 {
	if !c.Single() {
		panic("collect: Snapshot requires n*d <= 64 (single-word object)")
	}
	return c.Collect()
}
