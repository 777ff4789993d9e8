package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/lsim"
	"repro/internal/simmap"
	"repro/internal/workload"
)

// The paper leaves L-Sim's experimental analysis as future work (§1, §6);
// this experiment performs it. The object is an array of `size` words; each
// operation touches two pseudo-random cells (w = 2). P-Sim must copy all
// `size` words per combining round (the clone), while L-Sim touches only
// the accessed ItemSV records — O(kw) instead of O(s). The crossover as
// `size` grows is the entire reason L-Sim exists.

// LargeObjectMakers returns the two contenders at every object size.
func LargeObjectMakers(sizes ...int) []harness.Maker {
	var makers []harness.Maker
	for _, size := range sizes {
		psim := func(n int) harness.Instance {
			u := newArrayPSim(n, size)
			return instance(fmt.Sprintf("P-Sim(s=%d)", size), u, func(id int, rng *workload.RNG) {
				u.Apply(id, [2]uint64{uint64(rng.Intn(size)), uint64(rng.Intn(size))})
			})
		}
		lsimMk := func(n int) harness.Instance {
			l, _, op := newArrayLSim(n, size)
			return instance(fmt.Sprintf("L-Sim(s=%d)", size), nil, func(id int, rng *workload.RNG) {
				l.ApplyOp(id, op, [2]uint64{uint64(rng.Intn(size)), uint64(rng.Intn(size))})
			})
		}
		makers = append(makers, psim, lsimMk)
	}
	return makers
}

// newArrayPSim builds the array object over plain P-Sim: the state is the
// whole []uint64 and each combining round copies every word — but into the
// recycled record's existing buffer (CloneInto), so the O(s) cost is a
// memcpy, not an allocation.
func newArrayPSim(n, size int) *core.PSim[[]uint64, [2]uint64, uint64] {
	return core.NewPSim(n, make([]uint64, size),
		func(st *[]uint64, _ int, arg [2]uint64) uint64 {
			va := (*st)[arg[0]]
			(*st)[arg[0]] = va + 1
			(*st)[arg[1]] ^= va
			return va
		},
		core.WithCloneInto[[]uint64](func(dst, src *[]uint64) {
			*dst = append((*dst)[:0], *src...)
		}))
}

// newArrayLSim builds the same object over L-Sim: one item per cell.
func newArrayLSim(n, size int) (*lsim.LSim[uint64, [2]uint64, uint64], []*lsim.Item[uint64], lsim.OpFunc[uint64, [2]uint64, uint64]) {
	l := lsim.New[uint64, [2]uint64, uint64](n)
	items := make([]*lsim.Item[uint64], size)
	for i := range items {
		items[i] = l.NewRootItem(0)
	}
	op := func(m *lsim.Mem[uint64, [2]uint64, uint64], arg [2]uint64) uint64 {
		a, b := items[arg[0]], items[arg[1]]
		va := m.Read(a)
		m.Write(a, va+1)
		vb := m.Read(b)
		m.Write(b, vb^va)
		return va
	}
	return l, items, op
}

// The large-VALUE crossover: where LargeObjectMakers sweeps the number of
// machine words in the object, this experiment sweeps the SIZE OF ONE VALUE
// in a fixed 64-key byte-value store — the tiered map's actual design
// question ("from what value size should a binding live in an L-Sim item?").
// Three contenders serve the same workload (overwrite a random key with one
// of 16 preallocated immutable payloads, return the first byte of the old
// value):
//
//   - "P-Sim flat": the whole store is one []byte slab inside a single
//     P-Sim. Every combining round clones the slab (CloneInto memcpy — no
//     allocation, but O(nkeys*vsize) bytes moved), and each op copies its
//     payload into the key's slot. This is what "keep values inline in the
//     combined state" costs.
//   - "L-Sim items": one lsim.Item[[]byte] per key; an overwrite reads the
//     old header and writes the new one — O(w)=O(1) per op regardless of
//     vsize. The payloads themselves are immutable and shared, exactly like
//     the tiered map's owned copies (the ownership copy happens in Put for
//     every engine, so it is excluded from all contenders).
//   - "MultiPSim(4)": four independent P-Sim slab instances, keys hash-
//     partitioned — the multiple-instances trick (§5; CX makes the same
//     move). Partitioning divides the per-round clone by K but cannot
//     change its O(vsize) growth, so it delays the crossover rather than
//     removing it.
//
// Payload choice rides in the op argument, so deterministic replay holds:
// every helper that simulates the op picks the same pool entry.
const (
	crossoverKeys = 64
	crossoverPool = 16
)

// crossoverPayloads builds the immutable payload pool for one value size.
func crossoverPayloads(vsize int) [][]byte {
	pool := make([][]byte, crossoverPool)
	for i := range pool {
		p := make([]byte, vsize)
		for j := range p {
			p[j] = byte(i + j)
		}
		pool[i] = p
	}
	return pool
}

// newFlatPSim builds the slab contender over nkeys keys of vsize bytes.
func newFlatPSim(n, nkeys, vsize int, pool [][]byte) *core.PSim[[]byte, [2]uint64, uint64] {
	return core.NewPSim(n, make([]byte, nkeys*vsize),
		func(st *[]byte, _ int, arg [2]uint64) uint64 {
			off := int(arg[0]) * vsize
			old := (*st)[off]
			copy((*st)[off:off+vsize], pool[arg[1]])
			return uint64(old)
		},
		core.WithCloneInto[[]byte](func(dst, src *[]byte) {
			*dst = append((*dst)[:0], *src...)
		}))
}

// LargeValueCrossoverMakers returns the three contenders at every value
// size.
func LargeValueCrossoverMakers(vsizes ...int) []harness.Maker {
	var makers []harness.Maker
	for _, vsize := range vsizes {
		flat := func(n int) harness.Instance {
			pool := crossoverPayloads(vsize)
			u := newFlatPSim(n, crossoverKeys, vsize, pool)
			return instance(fmt.Sprintf("P-Sim flat(v=%d)", vsize), u, func(id int, rng *workload.RNG) {
				u.Apply(id, [2]uint64{uint64(rng.Intn(crossoverKeys)), uint64(rng.Intn(crossoverPool))})
			})
		}
		items := func(n int) harness.Instance {
			pool := crossoverPayloads(vsize)
			l := lsim.New[[]byte, [2]uint64, uint64](n)
			its := make([]*lsim.Item[[]byte], crossoverKeys)
			for i := range its {
				its[i] = l.NewRootItem(pool[i%crossoverPool])
			}
			op := func(m *lsim.Mem[[]byte, [2]uint64, uint64], arg [2]uint64) uint64 {
				it := its[arg[0]]
				old := m.Read(it)
				m.Write(it, pool[arg[1]])
				return uint64(old[0])
			}
			return instance(fmt.Sprintf("L-Sim items(v=%d)", vsize), nil, func(id int, rng *workload.RNG) {
				l.ApplyOp(id, op, [2]uint64{uint64(rng.Intn(crossoverKeys)), uint64(rng.Intn(crossoverPool))})
			})
		}
		multi := func(n int) harness.Instance {
			const k = 4
			pool := crossoverPayloads(vsize)
			insts := make([]*core.PSim[[]byte, [2]uint64, uint64], k)
			for i := range insts {
				insts[i] = newFlatPSim(n, crossoverKeys/k, vsize, pool)
			}
			return harness.Instance{
				Name: fmt.Sprintf("MultiPSim(%d) flat(v=%d)", k, vsize),
				Op: func(id int, rng *workload.RNG) {
					key := rng.Intn(crossoverKeys)
					insts[key%k].Apply(id, [2]uint64{uint64(key / k), uint64(rng.Intn(crossoverPool))})
				},
			}
		}
		makers = append(makers, flat, items, multi)
	}
	return makers
}

// MapMakers runs the striped wait-free map at each stripe count over a
// 512-key space, 3 puts to 1 delete. One stripe is a single global P-Sim
// instance managing the whole object, so the sweep quantifies what the
// multiple-instances idea (SimQueue's trick, §5) buys on a map workload.
// With batch > 1 every call is an MSet (or MDelete) of batch random keys,
// one combining round per touched stripe; rows are named
// "Map(stripes=S) b=B" at every batch, as in Fig2BatchMakers.
func MapMakers(batch int, stripes ...int) []harness.Maker {
	batch = max(batch, 1)
	var makers []harness.Maker
	for _, s := range stripes {
		name := fmt.Sprintf("Map(stripes=%d) b=%d", s, batch)
		makers = append(makers, func(n int) harness.Instance {
			m := simmap.New[uint64, uint64](n, s)
			if batch == 1 {
				return instance(name, m, func(id int, rng *workload.RNG) {
					k := rng.Uint64() % 512
					if rng.Intn(4) == 0 {
						m.Delete(id, k)
					} else {
						m.Put(id, k, k)
					}
				})
			}
			keys := make([][]uint64, n)
			for i := range keys {
				keys[i] = make([]uint64, batch)
			}
			in := instance(name, m, func(id int, rng *workload.RNG) {
				ks := keys[id]
				for i := range ks {
					ks[i] = rng.Uint64() % 512
				}
				if rng.Intn(4) == 0 {
					m.MDelete(id, ks)
				} else {
					m.MSet(id, ks, ks)
				}
			})
			in.OpsPerCall = batch
			return in
		})
	}
	return makers
}
