package check

import (
	"fmt"
	"strconv"
)

// Operation names understood by the built-in specs.
const (
	OpPush    = "push" // stack: Arg = value
	OpPop     = "pop"  // stack: RetOK=false means empty, else Ret = value
	OpEnqueue = "enq"  // queue: Arg = value
	OpDequeue = "deq"  // queue: RetOK=false means empty, else Ret = value
	OpAdd     = "add"  // counter: Arg = delta, Ret = previous value
	OpMul     = "mul"  // Fetch&Multiply: Arg = factor, Ret = previous value
	OpRead    = "read" // register: Ret = value
	OpWrite   = "write"
)

// seqState is an immutable slice-backed sequence state shared by the stack
// and queue specs.
type seqState struct {
	items []uint64
}

// seqKey builds dedup keys with strconv.AppendUint rather than fmt: key
// construction dominates the forward engine's runtime on long histories
// (every frontier state is keyed at every step), and Fprintf is ~10x the
// cost of AppendUint per element.
func seqKey(s any) string {
	st := s.(*seqState)
	b := make([]byte, 0, 8*len(st.items))
	for _, v := range st.items {
		b = strconv.AppendUint(b, v, 10)
		b = append(b, ',')
	}
	return string(b)
}

// StackSpec is the sequential LIFO specification.
func StackSpec() Spec {
	return Spec{
		Init: func() any { return &seqState{} },
		Step: func(state any, op Operation) (any, bool) {
			st := state.(*seqState)
			switch op.Op {
			case OpPush:
				ns := append(append([]uint64(nil), st.items...), op.Arg)
				return &seqState{items: ns}, true
			case OpPop:
				if len(st.items) == 0 {
					return st, !op.RetOK
				}
				top := st.items[len(st.items)-1]
				if !op.RetOK || op.Ret != top {
					return st, false
				}
				ns := append([]uint64(nil), st.items[:len(st.items)-1]...)
				return &seqState{items: ns}, true
			}
			return st, false
		},
		Key: seqKey,
	}
}

// QueueSpec is the sequential FIFO specification.
func QueueSpec() Spec {
	return Spec{
		Init: func() any { return &seqState{} },
		Step: func(state any, op Operation) (any, bool) {
			st := state.(*seqState)
			switch op.Op {
			case OpEnqueue:
				ns := append(append([]uint64(nil), st.items...), op.Arg)
				return &seqState{items: ns}, true
			case OpDequeue:
				if len(st.items) == 0 {
					return st, !op.RetOK
				}
				front := st.items[0]
				if !op.RetOK || op.Ret != front {
					return st, false
				}
				ns := append([]uint64(nil), st.items[1:]...)
				return &seqState{items: ns}, true
			}
			return st, false
		},
		Key: seqKey,
	}
}

// CounterSpec is a fetch-and-add counter: add returns the previous value.
func CounterSpec(init uint64) Spec {
	return Spec{
		Init: func() any { return init },
		Step: func(state any, op Operation) (any, bool) {
			v := state.(uint64)
			switch op.Op {
			case OpAdd:
				return v + op.Arg, op.Ret == v
			case OpRead:
				return v, op.Ret == v
			}
			return v, false
		},
		Key: func(state any) string { return fmt.Sprintf("%d", state.(uint64)) },
	}
}

// FMulSpec is the paper's Fetch&Multiply object: mul returns the previous
// value and multiplies the state by the argument.
func FMulSpec(init uint64) Spec {
	return Spec{
		Init: func() any { return init },
		Step: func(state any, op Operation) (any, bool) {
			v := state.(uint64)
			switch op.Op {
			case OpMul:
				return v * op.Arg, op.Ret == v
			case OpRead:
				return v, op.Ret == v
			}
			return v, false
		},
		Key: func(state any) string { return fmt.Sprintf("%d", state.(uint64)) },
	}
}

// RegisterSpec is a read/write register.
func RegisterSpec(init uint64) Spec {
	return Spec{
		Init: func() any { return init },
		Step: func(state any, op Operation) (any, bool) {
			v := state.(uint64)
			switch op.Op {
			case OpWrite:
				return op.Arg, true
			case OpRead:
				return v, op.Ret == v
			}
			return v, false
		},
		Key: func(state any) string { return fmt.Sprintf("%d", state.(uint64)) },
	}
}

// Map operation names. All three pack the key into the high half of Arg so
// one partition function covers them (values are the low half; get/del
// leave it zero).
const (
	OpMapPut = "mput" // Arg = key<<32 | value; Ret = previous value; RetOK = existed
	OpMapDel = "mdel" // Arg = key<<32; Ret = previous value; RetOK = existed
	OpMapGet = "mget" // Arg = key<<32; Ret = value; RetOK = found
)

// MapPartOf partitions map operations by key, for use with
// LinearizablePartitioned and MapKeySpec: operations on independent keys of
// a hash map never interact, so each key's subhistory is checked against
// the single-binding spec — this is exactly the consistency a sharded map
// guarantees (per-key linearizability, no cross-key atomicity).
func MapPartOf(op Operation) string { return fmt.Sprintf("%d", op.Arg>>32) }

// MapKeySpec is the sequential specification of ONE map key: a binding
// that put overwrites (returning the previous value), del clears, and get
// reads. State packs presence into bit 63 (values must fit 32 bits, which
// the OpMap encodings already require).
func MapKeySpec() Spec {
	const present = uint64(1) << 63
	return Spec{
		Init: func() any { return uint64(0) },
		Step: func(state any, op Operation) (any, bool) {
			s := state.(uint64)
			exists := s&present != 0
			cur := s &^ present
			prevOK := op.RetOK == exists && (!exists || op.Ret == cur)
			switch op.Op {
			case OpMapPut:
				if !prevOK {
					return s, false
				}
				return present | (op.Arg & 0xffffffff), true
			case OpMapDel:
				if !prevOK {
					return s, false
				}
				return uint64(0), true
			case OpMapGet:
				return s, prevOK
			}
			return s, false
		},
		Key: func(state any) string { return fmt.Sprintf("%d", state.(uint64)) },
	}
}

// Blob-map operation names — the tiered byte-value map (internal/simmap's
// Tiered). Stored byte values are recorded as 32-bit TOKENS (a fingerprint
// of the bytes, chosen by the recording driver). Unlike the plain map ops,
// put and del report existence only: Tiered.Put deliberately returns no
// previous value, because a tier-move race can make a lost large-tier write
// linearizable only when no operation has to report it as a predecessor
// (see internal/simmap/tiered.go). The spec therefore validates existence
// on put/del and the value token on get.
const (
	OpBlobPut = "bput" // Arg = key<<32 | token; RetOK = existed (Ret unused)
	OpBlobDel = "bdel" // Arg = key<<32; RetOK = existed (Ret unused)
	OpBlobGet = "bget" // Arg = key<<32; Ret = token; RetOK = found
)

// BlobKeySpec is the sequential specification of ONE blob-map key: a
// binding that put overwrites, del clears, and get reads by token. State
// packs presence into bit 63 like MapKeySpec.
func BlobKeySpec() Spec {
	const present = uint64(1) << 63
	return Spec{
		Init: func() any { return uint64(0) },
		Step: func(state any, op Operation) (any, bool) {
			s := state.(uint64)
			exists := s&present != 0
			cur := s &^ present
			switch op.Op {
			case OpBlobPut:
				if op.RetOK != exists {
					return s, false
				}
				return present | (op.Arg & 0xffffffff), true
			case OpBlobDel:
				if op.RetOK != exists {
					return s, false
				}
				return uint64(0), true
			case OpBlobGet:
				return s, op.RetOK == exists && (!exists || op.Ret == cur)
			}
			return s, false
		},
		Key: func(state any) string { return fmt.Sprintf("%d", state.(uint64)) },
	}
}

// Append-log operation names — the sequential object of the ingest spool
// (internal/spool): a log of payload values at globally contiguous offsets
// with a retention low watermark that only moves forward. Payloads must fit
// 32 bits (lget packs offset and payload like the map encodings).
const (
	OpLogAppend = "lapp" // Arg = payload; Ret = assigned offset
	OpLogRead   = "lget" // Arg = cursor; Ret = offset<<32 | payload of the
	// first retained event at offset ≥ max(cursor, lwm); RetOK=false means
	// the cursor is past the end (caught up)
	OpLogTrim = "ltrim" // Arg = requested cutoff offset; Ret = resulting
	// low watermark. Trims are segment-granular, so the spec admits any
	// watermark in [current, clamp(Arg)] — the return value resolves the
	// nondeterminism and becomes the new watermark.
)

// logState is the immutable append-log state: payloads of the retained
// offsets [lwm, lwm+len(pays)).
type logState struct {
	lwm  uint64
	pays []uint64
}

// LogSpec is the sequential specification of the ingest spool's append log.
func LogSpec() Spec {
	return Spec{
		Init: func() any { return &logState{} },
		Step: func(state any, op Operation) (any, bool) {
			st := state.(*logState)
			next := st.lwm + uint64(len(st.pays))
			switch op.Op {
			case OpLogAppend:
				if !op.RetOK || op.Ret != next {
					return st, false
				}
				ns := append(append([]uint64(nil), st.pays...), op.Arg)
				return &logState{lwm: st.lwm, pays: ns}, true
			case OpLogRead:
				cur := op.Arg
				if cur < st.lwm {
					cur = st.lwm
				}
				if cur >= next {
					return st, !op.RetOK // nothing at or past the cursor
				}
				return st, op.RetOK && op.Ret == cur<<32|st.pays[cur-st.lwm]
			case OpLogTrim:
				hi := op.Arg
				if hi < st.lwm {
					hi = st.lwm
				}
				if hi > next {
					hi = next
				}
				if !op.RetOK || op.Ret < st.lwm || op.Ret > hi {
					return st, false
				}
				if op.Ret == st.lwm {
					return st, true
				}
				ns := append([]uint64(nil), st.pays[op.Ret-st.lwm:]...)
				return &logState{lwm: op.Ret, pays: ns}, true
			}
			return st, false
		},
		Key: func(state any) string {
			st := state.(*logState)
			b := make([]byte, 0, 12+8*len(st.pays))
			b = strconv.AppendUint(b, st.lwm, 10)
			b = append(b, '|')
			for _, v := range st.pays {
				b = strconv.AppendUint(b, v, 10)
				b = append(b, ',')
			}
			return string(b)
		},
	}
}
