package v2

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/check"
)

// Engine selects which checker decides each partition.
type Engine int

const (
	// EngineForward uses the single-pass checkers: ForwardQueue for queue
	// partitions, Simulate for everything else. Scales to arbitrarily long
	// histories.
	EngineForward Engine = iota
	// EngineSearch uses the 64-operation Wing–Gong search from
	// internal/check. Partitions longer than 64 ops return ErrTooLarge.
	EngineSearch
	// EngineBoth runs both and cross-validates: a verdict disagreement is
	// reported as ErrDisagree (a checker bug, not a history property).
	// Partitions beyond the search's reach are decided by the forward
	// engine alone.
	EngineBoth
)

func (e Engine) String() string {
	switch e {
	case EngineForward:
		return "forward"
	case EngineSearch:
		return "search"
	case EngineBoth:
		return "both"
	}
	return "?"
}

// ParseEngine maps the simcheck -engine flag values onto Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "forward":
		return EngineForward, nil
	case "search":
		return EngineSearch, nil
	case "both":
		return EngineBoth, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want forward, search or both)", s)
}

// ErrDisagree means the forward and search engines returned different
// verdicts for the same partition — a bug in one of the checkers.
var ErrDisagree = errors.New("check engines disagree")

// ErrAmbiguous means the history mixes operations the driver cannot
// classify into one object class (e.g. bare reads next to both add and mul).
var ErrAmbiguous = errors.New("compose: ambiguous history")

// Options configures CheckHistory.
type Options struct {
	Engine Engine
	// Partition splits map and blob-map histories per key before checking.
	// Sound and complete by the locality property of linearizability
	// (Herlihy & Wing): with every operation touching one key, the history
	// is linearizable iff each per-key projection is. Disabling it checks
	// the same history against the whole-object spec in a single frontier —
	// slower, and liable to hit ErrFrontierLimit under cross-key overlap,
	// but an independent cross-check of the partitioning machinery. (Note
	// multi-key batches are recorded as per-key operations sharing a call
	// window, so neither mode asserts batch-snapshot atomicity; that
	// matches the contract of the sharded map, which promises per-key
	// linearizability only.)
	Partition bool
	// MaxFrontier caps the forward engine's frontier (0 = DefaultMaxFrontier).
	MaxFrontier int
}

// DefaultOptions: forward engine with per-key partitioning.
func DefaultOptions() Options {
	return Options{Engine: EngineForward, Partition: true}
}

// Check verifies a mixed history with the default options.
func Check(ops []check.Operation) error { return CheckHistory(ops, DefaultOptions()) }

// object classes recognised by the driver.
const (
	classQueue    = "queue"
	classStack    = "stack"
	classCounter  = "counter"
	classFMul     = "fmul"
	classRegister = "register"
	classMap      = "map"
	classBlob     = "blobmap"
	classLog      = "log"
)

// CheckHistory splits ops into independent object classes (queue, stack,
// counter, fmul, register, map, blob map, log — the classes never share
// state, so their sub-histories are checked independently), partitions the
// map and blob-map classes per key when opts.Partition is set, and routes
// every partition to the engine chosen by opts.Engine. Counter and register
// histories start at 0 and fmul histories at 1. nil means linearizable;
// ErrRejected (test with Rejected) means proven non-linearizable; other
// errors are engine limitations or malformed input.
func CheckHistory(ops []check.Operation, opts Options) error {
	classes, err := classify(ops)
	if err != nil {
		return err
	}
	// Deterministic class order for reproducible error messages.
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		if err := checkClass(c, classes[c], opts); err != nil {
			return fmt.Errorf("%s history: %w", c, err)
		}
	}
	return nil
}

// classify buckets operations by object class. Bare reads are attributed to
// whichever of counter/fmul/register also appears; reads with no writer
// class (or more than one) go to a register unless that is ambiguous.
func classify(ops []check.Operation) (map[string][]check.Operation, error) {
	classes := make(map[string][]check.Operation)
	var reads []check.Operation
	for _, o := range ops {
		switch o.Op {
		case check.OpEnqueue, check.OpDequeue:
			classes[classQueue] = append(classes[classQueue], o)
		case check.OpPush, check.OpPop:
			classes[classStack] = append(classes[classStack], o)
		case check.OpAdd:
			classes[classCounter] = append(classes[classCounter], o)
		case check.OpMul:
			classes[classFMul] = append(classes[classFMul], o)
		case check.OpWrite:
			classes[classRegister] = append(classes[classRegister], o)
		case check.OpRead:
			reads = append(reads, o)
		case check.OpMapPut, check.OpMapDel, check.OpMapGet:
			classes[classMap] = append(classes[classMap], o)
		case check.OpBlobPut, check.OpBlobDel, check.OpBlobGet:
			classes[classBlob] = append(classes[classBlob], o)
		case check.OpLogAppend, check.OpLogRead, check.OpLogTrim:
			classes[classLog] = append(classes[classLog], o)
		default:
			return nil, fmt.Errorf("compose: unknown operation %q in %v", o.Op, o)
		}
	}
	if len(reads) > 0 {
		var owners []string
		for _, c := range []string{classCounter, classFMul, classRegister} {
			if len(classes[c]) > 0 {
				owners = append(owners, c)
			}
		}
		switch len(owners) {
		case 0:
			classes[classRegister] = reads
		case 1:
			classes[owners[0]] = append(classes[owners[0]], reads...)
		default:
			return nil, fmt.Errorf("%w: bare reads alongside several value objects (%s)",
				ErrAmbiguous, strings.Join(owners, ", "))
		}
	}
	return classes, nil
}

func checkClass(class string, ops []check.Operation, opts Options) error {
	var sim []SimOption
	if opts.MaxFrontier > 0 {
		sim = append(sim, WithMaxFrontier(opts.MaxFrontier))
	}

	// run dispatches one partition to the selected engine(s).
	run := func(ops []check.Operation, spec check.Spec) error {
		forward := func() error { return Simulate(ops, spec, sim...) }
		if class == classQueue {
			forward = func() error {
				err := ForwardQueue(ops)
				if errors.Is(err, ErrNotDifferentiated) {
					// Duplicate values defeat the axiom checker; the
					// frontier engine decides (it needs no uniqueness).
					return Simulate(ops, spec, sim...)
				}
				return err
			}
		}
		search := func() error {
			ok, err := check.Linearizable(ops, spec)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("%w (search engine)", ErrRejected)
			}
			return nil
		}
		switch opts.Engine {
		case EngineForward:
			return forward()
		case EngineSearch:
			return search()
		case EngineBoth:
			ferr := forward()
			if ferr != nil && !Rejected(ferr) {
				return ferr // forward engine could not decide
			}
			serr := search()
			if errors.Is(serr, check.ErrTooLarge) {
				return ferr // beyond the search's reach: forward alone decides
			}
			if serr != nil && !Rejected(serr) {
				return serr
			}
			if Rejected(ferr) != Rejected(serr) {
				return fmt.Errorf("%w: forward says %v, search says %v", ErrDisagree, verdict(ferr), verdict(serr))
			}
			return ferr
		}
		return fmt.Errorf("compose: unknown engine %d", opts.Engine)
	}

	switch class {
	case classQueue:
		return run(ops, check.QueueSpec())
	case classStack:
		return run(ops, check.StackSpec())
	case classCounter:
		return run(ops, check.CounterSpec(0))
	case classFMul:
		return run(ops, check.FMulSpec(1))
	case classRegister:
		return run(ops, check.RegisterSpec(0))
	case classMap:
		if !opts.Partition {
			return run(ops, MapSpec())
		}
		return eachPartition(ops, func(o check.Operation) uint64 { return o.Arg >> 32 },
			func(part []check.Operation) error { return run(part, check.MapKeySpec()) })
	case classBlob:
		if !opts.Partition {
			return run(ops, BlobMapSpec())
		}
		return eachPartition(ops, func(o check.Operation) uint64 { return o.Arg >> 32 },
			func(part []check.Operation) error { return run(part, check.BlobKeySpec()) })
	case classLog:
		// One global offset space: the log is never partitioned.
		return run(ops, check.LogSpec())
	}
	return fmt.Errorf("compose: unknown class %q", class)
}

// eachPartition splits ops by key and checks every partition, visiting keys
// in sorted order so failures are deterministic.
func eachPartition(ops []check.Operation, keyOf func(check.Operation) uint64, checkPart func([]check.Operation) error) error {
	parts := make(map[uint64][]check.Operation)
	for _, o := range ops {
		k := keyOf(o)
		parts[k] = append(parts[k], o)
	}
	keys := make([]uint64, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if err := checkPart(parts[k]); err != nil {
			return fmt.Errorf("key %d: %w", k, err)
		}
	}
	return nil
}

func verdict(err error) string {
	if err == nil {
		return "linearizable"
	}
	return "NOT linearizable"
}

// BlobMapSpec is the WHOLE-map sequential specification of the blob-map
// class (all keys in one state), the -partition=false cross-check of
// BlobKeySpec — same relationship MapSpec has to MapKeySpec. Put and del
// validate existence only; get validates the stored token (see
// check.BlobKeySpec).
func BlobMapSpec() check.Spec {
	return check.Spec{
		Init: func() any { return &mapState{} },
		Step: func(state any, op check.Operation) (any, bool) {
			st := state.(*mapState)
			key := op.Arg >> 32
			idx := sort.Search(len(st.keys), func(i int) bool { return st.keys[i] >= key })
			exists := idx < len(st.keys) && st.keys[idx] == key
			var cur uint64
			if exists {
				cur = st.vals[idx]
			}
			switch op.Op {
			case check.OpBlobGet:
				return st, op.RetOK == exists && (!exists || op.Ret == cur)
			case check.OpBlobPut:
				if op.RetOK != exists {
					return st, false
				}
				ns := &mapState{
					keys: append([]uint64(nil), st.keys...),
					vals: append([]uint64(nil), st.vals...),
				}
				if exists {
					ns.vals[idx] = op.Arg & 0xffffffff
				} else {
					ns.keys = append(ns.keys[:idx], append([]uint64{key}, ns.keys[idx:]...)...)
					ns.vals = append(ns.vals[:idx], append([]uint64{op.Arg & 0xffffffff}, ns.vals[idx:]...)...)
				}
				return ns, true
			case check.OpBlobDel:
				if op.RetOK != exists {
					return st, false
				}
				if !exists {
					return st, true
				}
				ns := &mapState{
					keys: append(append([]uint64(nil), st.keys[:idx]...), st.keys[idx+1:]...),
					vals: append(append([]uint64(nil), st.vals[:idx]...), st.vals[idx+1:]...),
				}
				return ns, true
			}
			return st, false
		},
		Key: func(state any) string {
			st := state.(*mapState)
			var b strings.Builder
			for i, k := range st.keys {
				fmt.Fprintf(&b, "%d=%d,", k, st.vals[i])
			}
			return b.String()
		},
	}
}

// mapState is an immutable sorted association list for MapSpec.
type mapState struct {
	keys, vals []uint64
}

// MapSpec is the WHOLE-map sequential specification (all keys in one
// state). Since every map operation touches a single key, checking against
// MapSpec is equivalent to per-key checking with MapKeySpec (locality), but
// the two take entirely different code paths, so -partition=false serves as
// a cross-validation mode; it is also much slower under cross-key overlap.
func MapSpec() check.Spec {
	return check.Spec{
		Init: func() any { return &mapState{} },
		Step: func(state any, op check.Operation) (any, bool) {
			st := state.(*mapState)
			key := op.Arg >> 32
			idx := sort.Search(len(st.keys), func(i int) bool { return st.keys[i] >= key })
			exists := idx < len(st.keys) && st.keys[idx] == key
			var cur uint64
			if exists {
				cur = st.vals[idx]
			}
			prevOK := op.RetOK == exists && (!exists || op.Ret == cur)
			switch op.Op {
			case check.OpMapGet:
				return st, prevOK
			case check.OpMapPut:
				if !prevOK {
					return st, false
				}
				ns := &mapState{
					keys: append([]uint64(nil), st.keys...),
					vals: append([]uint64(nil), st.vals...),
				}
				if exists {
					ns.vals[idx] = op.Arg & 0xffffffff
				} else {
					ns.keys = append(ns.keys[:idx], append([]uint64{key}, ns.keys[idx:]...)...)
					ns.vals = append(ns.vals[:idx], append([]uint64{op.Arg & 0xffffffff}, ns.vals[idx:]...)...)
				}
				return ns, true
			case check.OpMapDel:
				if !prevOK {
					return st, false
				}
				if !exists {
					return st, true
				}
				ns := &mapState{
					keys: append(append([]uint64(nil), st.keys[:idx]...), st.keys[idx+1:]...),
					vals: append(append([]uint64(nil), st.vals[:idx]...), st.vals[idx+1:]...),
				}
				return ns, true
			}
			return st, false
		},
		Key: func(state any) string {
			st := state.(*mapState)
			var b strings.Builder
			for i, k := range st.keys {
				fmt.Fprintf(&b, "%d=%d,", k, st.vals[i])
			}
			return b.String()
		},
	}
}
