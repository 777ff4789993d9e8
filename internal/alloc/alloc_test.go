package alloc

import (
	"sync"
	"sync/atomic"
	"testing"
)

// tblk is the test block: a payload, the intrusive free-chain link, and an
// atomic protection flag standing in for a hazard-pointer table.
type tblk struct {
	val  int
	next *tblk
	prot atomic.Bool
}

func tconfig(chain, slots int) Config[tblk] {
	return Config[tblk]{
		New:     func() *tblk { return new(tblk) },
		Next:    func(b *tblk) *tblk { return b.next },
		SetNext: func(b, n *tblk) { b.next = n },
		Reset:   func(b *tblk) { b.val = 0 },
		Chain:   chain,
		Slots:   slots,
	}
}

// flagGuard treats a block as protected while its prot flag is set.
type flagGuard struct{}

func (flagGuard) Hazarded(b *tblk) bool { return b.prot.Load() }

func TestPoolRoundtrip(t *testing.T) {
	p := NewPool(1, tconfig(4, 2))
	h := p.Handle(0)

	x, fresh := h.Get()
	if !fresh {
		t.Fatalf("first Get must be fresh")
	}
	x.val = 42
	h.Put(x)
	y, fresh := h.Get()
	if fresh {
		t.Fatalf("Get after Put must recycle")
	}
	if y != x {
		t.Fatalf("expected the same block back (LIFO stack)")
	}
	if y.val != 0 {
		t.Fatalf("Reset must have cleared val, got %d", y.val)
	}
	if got := p.blocks.Total(); got != 2 {
		t.Fatalf("blocks counter = %d, want 2", got)
	}
	if got := p.fresh.Total(); got != 1 {
		t.Fatalf("fresh counter = %d, want 1", got)
	}
}

// TestPoolHandoff drives an imbalanced producer/consumer pair and checks
// chains actually move through the shared pool.
func TestPoolHandoff(t *testing.T) {
	const chain = 4
	p := NewPool(2, tconfig(chain, 2))
	prod, cons := p.Handle(0), p.Handle(1)

	// Producer retires 3 chains' worth of blocks it never takes back.
	for i := 0; i < 3*chain; i++ {
		prod.Put(new(tblk))
	}
	// Cache holds 2 chains; one must have reached the shared pool.
	if got := p.handoff.Total(); got != 1 {
		t.Fatalf("handoff counter = %d, want 1 give", got)
	}
	// Consumer drains: the first chain Gets must be recycled, not fresh.
	recycled := 0
	for i := 0; i < chain; i++ {
		if _, fresh := cons.Get(); !fresh {
			recycled++
		}
	}
	if recycled != chain {
		t.Fatalf("consumer recycled %d of %d blocks from the shared pool", recycled, chain)
	}
	if got := p.handoff.Total(); got != 2 {
		t.Fatalf("handoff counter = %d, want 2 (1 give + 1 take)", got)
	}
}

// TestPoolDropBoundsSpace fills the shared pool and verifies overflow chains
// are dropped to the GC (the space bound) instead of retained.
func TestPoolDropBoundsSpace(t *testing.T) {
	const chain = 4
	p := NewPool(1, tconfig(chain, 2))
	h := p.Handle(0)

	// 2 slots × 4 + handle cache 2×4 = 16 retained max; put twice that.
	for i := 0; i < 2*p.Cap(); i++ {
		h.Put(new(tblk))
	}
	if p.drops.Total() == 0 {
		t.Fatalf("expected drops after overflowing the shared pool")
	}
	if got, capN := p.Retained(), p.Cap(); got > capN {
		t.Fatalf("Retained() = %d exceeds Cap() = %d", got, capN)
	}
	freed := p.frees.Total()
	if want := uint64(2 * p.Cap()); freed != want {
		t.Fatalf("frees counter = %d, want %d", freed, want)
	}
}

// TestAllocFreeAllocsSteadyState is the CI gate: once warm, balanced
// Get/Put cycles allocate nothing — both within one handle and when blocks
// circulate between two handles through the shared pool.
func TestAllocFreeAllocsSteadyState(t *testing.T) {
	const chain = 4

	t.Run("single-handle", func(t *testing.T) {
		p := NewPool(1, tconfig(chain, 2))
		h := p.Handle(0)
		warm := func() {
			x, _ := h.Get()
			x.val = 1
			h.Put(x)
		}
		for i := 0; i < 4*chain; i++ {
			warm()
		}
		if avg := testing.AllocsPerRun(200, warm); avg != 0 {
			t.Fatalf("single-handle steady state allocates %.2f/op, want 0", avg)
		}
	})

	t.Run("cross-handle-circulation", func(t *testing.T) {
		p := NewPool(2, tconfig(chain, 4))
		prod, cons := p.Handle(0), p.Handle(1)
		cycle := func() {
			x, _ := cons.Get() // consumer takes (refills from shared pool)
			x.val = 1
			prod.Put(x) // producer retires (gives chains to shared pool)
		}
		// Warm until the circulation reaches steady state: the block
		// population in flight is bounded by the two caches + pool.
		for i := 0; i < 8*p.Cap(); i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(400, cycle); avg != 0 {
			t.Fatalf("cross-handle circulation allocates %.2f/op, want 0", avg)
		}
	})

	t.Run("typed-guarded", func(t *testing.T) {
		p := NewPool(1, tconfig(chain, 2))
		ty := NewTyped(p, flagGuard{})
		h := p.Handle(0)
		cycle := func() {
			x, _ := ty.Get(h)
			x.val = 1
			ty.Put(h, x)
		}
		for i := 0; i < 4*chain; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Fatalf("guarded steady state allocates %.2f/op, want 0", avg)
		}
	})
}

// TestTypedNeverReissuesProtected pins the hazard-composition contract: a
// protected block parks in the cache and is not returned by Get until the
// protection clears; a fully protected cache yields fresh blocks (starved
// counter) rather than waiting.
func TestTypedNeverReissuesProtected(t *testing.T) {
	const chain = 4
	p := NewPool(1, tconfig(chain, 2))
	ty := NewTyped(p, flagGuard{})
	h := p.Handle(0)

	// Retire a handful of blocks, then protect one of them.
	blocks := make([]*tblk, chain)
	for i := range blocks {
		blocks[i], _ = ty.Get(h)
	}
	for _, b := range blocks {
		ty.Put(h, b)
	}
	pinned := blocks[len(blocks)-1] // top of the stack: first Get candidate
	pinned.prot.Store(true)

	for i := 0; i < 3*chain; i++ {
		x, _ := ty.Get(h)
		if x == pinned {
			t.Fatalf("Get reissued a protected block")
		}
		ty.Put(h, x)
	}

	// Release the pin and drain the whole cache (balanced one-block churn
	// never digs below the LIFO top): the block must be reissuable again.
	pinned.prot.Store(false)
	seen := false
	drained := make([]*tblk, 0, 2*chain)
	for i := 0; i < 2*chain; i++ {
		x, fresh := ty.Get(h)
		if x == pinned {
			seen = true
		}
		if fresh {
			break
		}
		drained = append(drained, x)
	}
	for _, b := range drained {
		ty.Put(h, b)
	}
	if !seen {
		t.Fatalf("unpinned block never returned to circulation")
	}
}

// TestTypedStarvation is the starvation half of the acceptance criteria:
// with EVERY retired block protected, Get stays wait-free (fresh blocks, no
// spinning), counts starvation, and retained space stays within Cap().
func TestTypedStarvation(t *testing.T) {
	const chain = 4
	p := NewPool(2, tconfig(chain, 2))
	ty := NewTyped(p, flagGuard{})
	h := p.Handle(0)

	for i := 0; i < 4*p.Cap(); i++ {
		x, _ := ty.Get(h)
		x.prot.Store(true) // reader parks on it forever
		ty.Put(h, x)
	}
	if p.starved.Total() == 0 {
		t.Fatalf("expected starved Gets with every block protected")
	}
	if p.fresh.Total() == 0 {
		t.Fatalf("expected fresh allocations under starvation")
	}
	if got, capN := p.Retained(), p.Cap(); got > capN {
		t.Fatalf("starvation broke the space bound: Retained() = %d > Cap() = %d", got, capN)
	}
	// Space bound must hold with drops accounting for the excess.
	if p.drops.Total() == 0 {
		t.Fatalf("expected drops to enforce the bound under starvation churn")
	}
}

// TestPoolConcurrentChurn is the -race stress: per-goroutine handles with
// deliberately imbalanced flows so chains cross through the shared pool
// while the race detector watches the link-field accesses.
func TestPoolConcurrentChurn(t *testing.T) {
	const (
		threads = 8
		chain   = 8
		iters   = 5000
	)
	p := NewPool(threads, tconfig(chain, threads))
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			held := make([]*tblk, 0, 2*chain)
			for i := 0; i < iters; i++ {
				switch {
				case id%2 == 0 && i%3 == 0:
					// Producer bias: retire a block it never took.
					h.Put(&tblk{val: id})
				case id%2 == 1 && i%3 == 0:
					// Consumer bias: take a block and leak it to the GC.
					x, _ := h.Get()
					x.val = id
				default:
					x, _ := h.Get()
					x.val = i
					held = append(held, x)
					if len(held) == cap(held) {
						for _, b := range held {
							h.Put(b)
						}
						held = held[:0]
					}
				}
			}
			for _, b := range held {
				h.Put(b)
			}
		}(id)
	}
	wg.Wait()
	if got, capN := p.Retained(), p.Cap(); got > capN {
		t.Fatalf("Retained() = %d exceeds Cap() = %d after churn", got, capN)
	}
}

// TestPoolCounters checks the counter identities the timeline mapping
// relies on: blocks = fresh + recycled, frees ≥ handoff×chain outflow.
func TestPoolCounters(t *testing.T) {
	const chain = 4
	p := NewPool(1, tconfig(chain, 2))
	h := p.Handle(0)
	recycled := 0
	for i := 0; i < 100; i++ {
		x, fresh := h.Get()
		if !fresh {
			recycled++
		}
		h.Put(x)
	}
	if got, want := p.blocks.Total(), uint64(100); got != want {
		t.Fatalf("blocks = %d, want %d", got, want)
	}
	if got, want := p.fresh.Total(), uint64(100-recycled); got != want {
		t.Fatalf("fresh = %d, want %d", got, want)
	}
	if got, want := p.frees.Total(), uint64(100); got != want {
		t.Fatalf("frees = %d, want %d", got, want)
	}
}
