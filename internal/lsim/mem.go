package lsim

// Mem is the memory interface an operation uses to access the shared
// object (Algorithm 8 lines 21–36). Reads and writes go through a private
// directory (the paper's D) so a helper's speculative updates stay local
// until the write-back phase; allocations go through the round's shared
// new-variable list so every helper of the round agrees on the identity of
// freshly allocated items.
//
// The directory is a per-thread reusable slice, reset between rounds:
// typical write sets are a handful of items, so a linear scan beats any map
// and keeps the round allocation-free. Past dirScanMax entries a (reused)
// map index takes over, so pathological w stays O(1) per access.
type Mem[V, A, R any] struct {
	l    *LSim[V, A, R]
	id   int // helper's process id (hazard slot + instrumentation)
	seq  uint64
	ents []dirEnt[V]
	idx  map[*Item[V]]int // nil while len(ents) <= dirScanMax
	midx map[*Item[V]]int // the retained map, cleared and re-armed on demand
	ltop *newVar          // cursor into the round's new-variable list
	pvar *newVar          // preallocated node for the next Alloc attempt
}

// dirEnt is one directory record (struct DirectoryNode): the item's locally
// current value, and whether the round changed it (only dirty entries are
// written back).
type dirEnt[V any] struct {
	it    *Item[V]
	val   V
	dirty bool
}

// dirScanMax is the directory size beyond which lookups switch from a
// linear scan to the retained map index.
const dirScanMax = 16

// reset re-arms the directory for a new round. Entries keep their backing
// storage (a bounded scratch working set).
func (m *Mem[V, A, R]) reset(seq uint64, ltop *newVar) {
	m.seq = seq
	m.ents = m.ents[:0]
	if m.idx != nil {
		clear(m.midx)
		m.idx = nil
	}
	m.ltop = ltop
}

// lookup returns the directory index of it, or -1.
func (m *Mem[V, A, R]) lookup(it *Item[V]) int {
	if m.idx != nil {
		if j, ok := m.idx[it]; ok {
			return j
		}
		return -1
	}
	for j := range m.ents {
		if m.ents[j].it == it {
			return j
		}
	}
	return -1
}

// insert appends a directory entry, promoting to the map index past
// dirScanMax.
func (m *Mem[V, A, R]) insert(it *Item[V], v V, dirty bool) int {
	m.ents = append(m.ents, dirEnt[V]{it: it, val: v, dirty: dirty})
	j := len(m.ents) - 1
	switch {
	case m.idx != nil:
		m.idx[it] = j
	case len(m.ents) > dirScanMax:
		if m.midx == nil {
			m.midx = make(map[*Item[V]]int, 4*dirScanMax)
		}
		m.idx = m.midx
		for k := range m.ents {
			m.idx[m.ents[k].it] = k
		}
	}
	return j
}

// Read returns the item's value as of this round's simulation, fetching it
// from the shared record on first access (lines 28–35). It aborts the
// enclosing attempt (via panic, recovered in attempt) when the item has
// already been written by a LATER round — the state this helper simulates
// against is obsolete.
func (m *Mem[V, A, R]) Read(it *Item[V]) V {
	if j := m.lookup(it); j >= 0 { // line 31: read the local copy
		return m.ents[j].val
	}
	// line 32: protected load (the LL); the copied V is safe to keep after
	// protection moves on because bodies recycle by overwriting their slots,
	// never the memory a stored V refers to.
	body, _ := m.l.ihaz.Acquire(m.id, &it.p, 0)
	m.l.count(m.id, 1)
	var v V
	switch {
	case body.seq == m.seq:
		// A co-helper of THIS round already wrote the item; the pre-round
		// value sits in the other slot (line 33).
		v = body.val[1-body.toggle]
	case body.seq < m.seq:
		v = body.val[body.toggle] // line 34: committed value
	default:
		panic(obsoleteError{}) // line 35: goto the validation (abort)
	}
	m.insert(it, v, false)
	return v
}

// Write records v as the item's new value in the directory (line 36). The
// shared record is updated during the write-back phase. v must be treated
// as immutable from here on (helpers hand it to readers by reference).
func (m *Mem[V, A, R]) Write(it *Item[V], v V) {
	if j := m.lookup(it); j >= 0 {
		m.ents[j].val = v
		m.ents[j].dirty = true
		return
	}
	m.insert(it, v, true)
}

// Alloc returns a fresh item (lines 21–27). All helpers of the round
// allocate through the round's shared list, so the k-th allocation of the
// round yields the SAME item for every helper — their speculative writes to
// it therefore converge on one shared record. Alloc is the one Mem path
// that allocates (a genuinely new item plus its list node); the node is
// preallocated across rounds so a lost CAS race costs nothing extra.
func (m *Mem[V, A, R]) Alloc() *Item[V] {
	if m.pvar == nil { // the paper preallocates pvar before the round
		m.pvar = &newVar{item: newItem(m.l.ihaz, *new(V))}
	}
	if m.ltop.next.CompareAndSwap(nil, m.pvar) { // line 23
		m.l.count(m.id, 1)
		m.pvar = nil // consumed; lines 24–25 preallocate lazily next time
	}
	m.ltop = m.ltop.next.Load() // line 26
	m.l.count(m.id, 1)
	it := m.ltop.item.(*Item[V])
	if m.lookup(it) < 0 {
		// line 27: enter it into the directory with its initial value,
		// dirty so the item's record is materialized at write-back.
		m.insert(it, *new(V), true)
	}
	return it
}
