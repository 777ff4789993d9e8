package xatomic

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// WordBits is the number of bits per bit-vector word.
const WordBits = 64

// Snapshot is an immutable point-in-time copy of a bit vector, one uint64
// per 64 bits. It supports the local bit algebra P-Sim's Attempt performs on
// its diffs value (Algorithm 3, lines 10–19): XOR against another snapshot,
// bitSearchFirst, and bit extraction.
type Snapshot []uint64

// NewSnapshot returns an all-zero snapshot able to hold n bits.
func NewSnapshot(n int) Snapshot {
	return make(Snapshot, WordsFor(n))
}

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + WordBits - 1) / WordBits
}

// Bit reports whether bit i is set.
func (s Snapshot) Bit(i int) bool {
	return s[i/WordBits]&(1<<uint(i%WordBits)) != 0
}

// SetBit sets bit i.
func (s Snapshot) SetBit(i int) {
	s[i/WordBits] |= 1 << uint(i%WordBits)
}

// ClearBit clears bit i.
func (s Snapshot) ClearBit(i int) {
	s[i/WordBits] &^= 1 << uint(i%WordBits)
}

// FlipBit toggles bit i.
func (s Snapshot) FlipBit(i int) {
	s[i/WordBits] ^= 1 << uint(i%WordBits)
}

// XorInto stores s XOR other into dst. All three must have equal length.
// This is Algorithm 3 line 10: diffs = applied XOR active.
func (s Snapshot) XorInto(other, dst Snapshot) {
	for i := range s {
		dst[i] = s[i] ^ other[i]
	}
}

// CopyFrom copies other into s.
func (s Snapshot) CopyFrom(other Snapshot) {
	copy(s, other)
}

// Equal reports whether the two snapshots hold identical bits.
func (s Snapshot) Equal(other Snapshot) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether no bit is set.
func (s Snapshot) IsZero() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// BitSearchFirst returns the index of the lowest set bit, or -1 if none.
// This is the paper's bitSearchFirst (Algorithm 3 line 16), which drives the
// helping loop over the diffs set.
func (s Snapshot) BitSearchFirst() int {
	for i, w := range s {
		if w != 0 {
			return i*WordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// IsOnlyBit reports whether the snapshot's only set bits are exactly mask in
// word — i.e. the vector is the singleton {the caller}. P-Sim's uncontended
// fast path uses it on diffs: a singleton means no helper work accumulated,
// so the backoff window was wasted and should shrink fast.
func (s Snapshot) IsOnlyBit(word int, mask uint64) bool {
	for i, w := range s {
		if i == word {
			if w != mask {
				return false
			}
		} else if w != 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits — used by the helping-degree
// statistic of Figure 2 (right).
func (s Snapshot) PopCount() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s Snapshot) Clone() Snapshot {
	d := make(Snapshot, len(s))
	copy(d, s)
	return d
}

// String renders the snapshot as little-endian bits grouped per word, for
// test diagnostics.
func (s Snapshot) String() string {
	var b strings.Builder
	for i, w := range s {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%064b", bits.Reverse64(w))
	}
	return b.String()
}

// SharedBits is an n-bit shared vector stored in ⌈n/64⌉ atomic words. It is
// written only with Fetch&Add (via Toggler) so that, as in P-Sim, announcing
// activity is a single F&A instruction, and read with per-word atomic loads.
//
// The words are packed contiguously, as the paper stores the multi-word Act
// vector "to the minimum possible number of cache lines" (§4), so a read
// costs one miss for up to 512 threads. A one-word-per-cache-line layout was
// measured against it and was never faster (EXPERIMENTS.md, "Dense vs
// padded Act vector").
type SharedBits struct {
	n     int
	words []atomic.Uint64
}

// NewSharedBits returns an n-bit vector: words packed contiguously so a full
// read touches the minimum number of cache lines (one line per 512 bits).
func NewSharedBits(n int) *SharedBits {
	return &SharedBits{n: n, words: make([]atomic.Uint64, WordsFor(n))}
}

// Len returns the number of bits.
func (b *SharedBits) Len() int { return b.n }

// Words returns the number of 64-bit words.
func (b *SharedBits) Words() int { return WordsFor(b.n) }

// AddWord atomically adds delta to word w and returns the previous value.
func (b *SharedBits) AddWord(w int, delta uint64) uint64 {
	return FetchAdd64(&b.words[w], delta)
}

// LoadWord atomically reads word w.
func (b *SharedBits) LoadWord(w int) uint64 {
	return b.words[w].Load()
}

// LoadInto reads every word into dst (len must equal Words()). The read is
// per-word atomic, not a multi-word snapshot — exactly the guarantee the
// paper's Act read has, and all P-Sim needs (each bit is single-writer).
func (b *SharedBits) LoadInto(dst Snapshot) {
	for i := range dst {
		dst[i] = b.LoadWord(i)
	}
}

// Load allocates and returns a snapshot of the vector.
func (b *SharedBits) Load() Snapshot {
	s := make(Snapshot, b.Words())
	b.LoadInto(s)
	return s
}

// Toggler flips one fixed bit of a SharedBits with a single Fetch&Add per
// call, the paper's announcement trick (Algorithm 3 lines 2–3): process i
// alternately adds +2^i and −2^i. Because process i is the only writer of
// that delta and the bit strictly alternates 0→1→0, the addition never
// carries or borrows into neighbouring bits.
//
// A Toggler is owned by one goroutine and must not be shared.
type Toggler struct {
	bits   *SharedBits
	word   int
	offset uint64 // +mask or its two's complement, alternating
	mask   uint64
	set    bool // local mirror: does the shared bit currently read 1?
}

// NewToggler returns a toggler for bit i, which must currently be 0 and must
// be toggled only through this Toggler.
func NewToggler(b *SharedBits, i int) *Toggler {
	mask := uint64(1) << uint(i%WordBits)
	return &Toggler{bits: b, word: i / WordBits, offset: mask, mask: mask}
}

// Toggle flips the bit with one Fetch&Add and returns the snapshot the bit's
// word held BEFORE the toggle.
func (t *Toggler) Toggle() (prevWord uint64) {
	prev := t.bits.AddWord(t.word, t.offset)
	t.offset = -t.offset
	t.set = !t.set
	return prev
}

// Set reports the current value of the bit according to this (single-writer)
// toggler's local mirror.
func (t *Toggler) Set() bool { return t.set }

// Mask returns the bit's mask within its word.
func (t *Toggler) Mask() uint64 { return t.mask }

// Word returns the index of the word holding the bit.
func (t *Toggler) Word() int { return t.word }
