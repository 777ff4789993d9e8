package v2

import (
	"errors"
	"testing"

	"repro/internal/check"
)

// decodeHistory turns fuzzer bytes into a well-formed (valid windows,
// unique timestamps) but not necessarily linearizable history across the
// driver's object classes. The bytes drive an open/close machine — ops
// open and close in fuzzer-chosen interleavings — and each closing op
// takes its result either from a sequential model evaluated at close time
// (plausible histories that reach deep into the checkers) or from raw
// fuzzer bytes (corrupted histories that must be rejected consistently).
func decodeHistory(data []byte) []check.Operation {
	// maxOps bounds the search oracle's cost: Wing–Gong memoization keys on
	// (state, remaining-mask), and chained windows of distinct values keep
	// states from collapsing, so cost grows like (width!)^(n/width).
	const maxOps = 16
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}

	var (
		ops     []check.Operation
		opens   []int
		ts      int64
		queue   []uint64
		stack   []uint64
		counter uint64
		mp      = make(map[uint64]uint64)
		nextVal uint64
	)
	tick := func() int64 { ts++; return ts }

	closeOp := func(i int) {
		o := &ops[i]
		honest := next()%4 != 0
		switch o.Op {
		case check.OpEnqueue:
			queue = append(queue, o.Arg)
		case check.OpDequeue:
			if len(queue) > 0 {
				o.Ret, o.RetOK = queue[0], true
				queue = queue[1:]
			}
		case check.OpPush:
			stack = append(stack, o.Arg)
		case check.OpPop:
			if len(stack) > 0 {
				o.Ret, o.RetOK = stack[len(stack)-1], true
				stack = stack[:len(stack)-1]
			}
		case check.OpAdd:
			o.Ret = counter
			counter += o.Arg
		case check.OpRead:
			o.Ret = counter // reads pair with adds in this generator
		case check.OpMapPut:
			k := o.Arg >> 32
			o.Ret, o.RetOK = mp[k], mapHas(mp, k)
			mp[k] = o.Arg & 0xffffffff
		case check.OpMapGet:
			k := o.Arg >> 32
			o.Ret, o.RetOK = mp[k], mapHas(mp, k)
		case check.OpMapDel:
			k := o.Arg >> 32
			o.Ret, o.RetOK = mp[k], mapHas(mp, k)
			delete(mp, k)
		}
		if !honest {
			o.Ret = uint64(next() % 5)
			o.RetOK = next()%2 == 0
		}
		o.Return = tick()
	}

	// maxWidth caps simultaneous open operations: real recorded histories
	// are at most thread-count wide, and the search oracle's cost grows
	// factorially with width on distinct-value histories.
	const maxWidth = 4
	for pos < len(data) && len(ops) < maxOps {
		c := next()
		if (c&1 == 1 || len(opens) >= maxWidth) && len(opens) > 0 {
			k := int(c>>1) % len(opens)
			closeOp(opens[k])
			opens = append(opens[:k], opens[k+1:]...)
			continue
		}
		op := check.Operation{Thread: int(c>>1) % 4, Invoke: tick()}
		switch (c >> 3) % 4 {
		case 0: // queue
			if c&0x40 == 0 {
				nextVal++
				op.Op, op.Arg = check.OpEnqueue, nextVal
			} else {
				op.Op = check.OpDequeue
			}
		case 1: // stack
			if c&0x40 == 0 {
				nextVal++
				op.Op, op.Arg = check.OpPush, nextVal
			} else {
				op.Op = check.OpPop
			}
		case 2: // counter (+ reads, which classify to the counter here)
			if c&0x40 == 0 {
				op.Op, op.Arg = check.OpAdd, uint64(next()%3+1)
			} else {
				op.Op = check.OpRead
			}
		case 3: // map over two keys
			key := uint64(next()%2 + 1)
			switch next() % 3 {
			case 0:
				op.Op, op.Arg = check.OpMapPut, key<<32|uint64(next()%3)
			case 1:
				op.Op, op.Arg = check.OpMapGet, key<<32
			default:
				op.Op, op.Arg = check.OpMapDel, key<<32
			}
		}
		ops = append(ops, op)
		opens = append(opens, len(ops)-1)
	}
	// Close whatever is still open, oldest first.
	for _, i := range opens {
		closeOp(i)
	}
	return ops
}

func mapHas(m map[uint64]uint64, k uint64) bool {
	_, ok := m[k]
	return ok
}

// fuzzSeeds are FuzzHistory's inline seeds (the committed corpus under
// testdata/fuzz adds more).
var fuzzSeeds = [][]byte{
	{0x00, 0x02, 0x01, 0x40, 0x03, 0x05},
	{0x08, 0x48, 0x09, 0x0b, 0x48, 0x07},
	{0x10, 0x50, 0x11, 0x13, 0x10, 0x51},
	{0x18, 0x01, 0x18, 0x02, 0x19, 0x18, 0x03, 0x05, 0x07},
	{0x00, 0x00, 0x00, 0x40, 0x40, 0x01, 0x03, 0x05, 0x07, 0x09},
}

// FuzzHistory differentially fuzzes the checkers: every decoded history is
// run through CheckHistory with EngineBoth, which checks each partition
// with the forward engine AND the Wing–Gong search and reports ErrDisagree
// on any verdict mismatch. Rejections and engine limitations are fine —
// only disagreement (a checker bug) fails.
func FuzzHistory(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeHistory(data)
		if len(ops) == 0 {
			return
		}
		opts := DefaultOptions()
		opts.Engine = EngineBoth
		opts.MaxFrontier = 1 << 12
		err := CheckHistory(ops, opts)
		if errors.Is(err, ErrDisagree) {
			t.Fatalf("engines disagree: %v\nhistory:\n%s", err, FormatHistory(ops))
		}
	})
}

// TestDecodeHistoryWellFormed pins the generator's invariants: valid
// windows, bounded size, and determinism.
func TestDecodeHistoryWellFormed(t *testing.T) {
	data := []byte{0x00, 0x02, 0x01, 0x40, 0x03, 0x05, 0x18, 0x19, 0x10, 0x50, 0x11}
	ops := decodeHistory(data)
	if len(ops) == 0 || len(ops) > 24 {
		t.Fatalf("decoded %d ops", len(ops))
	}
	for _, o := range ops {
		if o.Invoke >= o.Return {
			t.Fatalf("invalid window: %v", o)
		}
	}
	again := decodeHistory(data)
	if len(again) != len(ops) {
		t.Fatal("decoder is nondeterministic")
	}
	for i := range ops {
		if ops[i] != again[i] {
			t.Fatalf("decoder is nondeterministic at op %d: %v vs %v", i, ops[i], again[i])
		}
	}
}
