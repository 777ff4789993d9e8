package check

import (
	"errors"
	"fmt"
)

// ErrTooLarge is returned by Linearizable for histories beyond the search's
// reach: longer than 64 operations (the search uses a bitmask over the
// operation set), or needing more than searchBudget explored configurations.
// Such histories need the forward-simulation engine (internal/check/v2).
var ErrTooLarge = errors.New("check: history beyond the search's reach (use the forward engine)")

// searchBudget bounds the configurations (remaining set, state) one
// Linearizable call explores. The search is exponential in the width of
// the history's overlap: 12 concurrent enqueues against 12 concurrent
// dequeues with one duplicated return grew the memo past 600 MiB without a
// verdict. At the budget the search gives up with ErrTooLarge instead,
// after about a second and 300 MiB of allocation. Every committed
// conformance, regression and fuzz-seed history is decided far below it,
// and the widest of the random 10–17-op queue histories the engine
// cross-check draws needs about half of it.
const searchBudget = 1 << 19

// Spec is a sequential specification for the checker: an immutable initial
// state, a step function that applies an operation and reports whether the
// operation's RECORDED response is consistent with the state, and a
// canonical key used to memoize explored configurations.
type Spec struct {
	Init func() any
	// Step returns the successor state and whether op's recorded response
	// matches what the sequential object would have returned. It must not
	// mutate state.
	Step func(state any, op Operation) (any, bool)
	// Key canonically encodes a state (used with the remaining-set bitmask
	// to prune re-explorations).
	Key func(state any) string
}

// Linearizable reports whether the history admits a linearization under
// spec: a total order of all operations that (1) contains every operation
// exactly once, (2) respects real-time order — if A returned before B was
// invoked, A precedes B — and (3) yields each operation's recorded response
// when executed sequentially. Histories are limited to 64 operations (the
// search uses a bitmask) and to searchBudget explored configurations —
// beyond either, an error wrapping ErrTooLarge is returned instead of a
// verdict; the test suite checks many small adversarial histories with this
// search and hands long histories to internal/check/v2.
func Linearizable(ops []Operation, spec Spec) (bool, error) {
	n := len(ops)
	if n == 0 {
		return true, nil
	}
	if n > 64 {
		return false, ErrTooLarge
	}

	type config struct {
		mask  uint64
		state string
	}
	full := uint64(1)<<uint(n) - 1
	seen := make(map[config]struct{})

	// dfs reports whether the remaining operations linearize from state;
	// err is set once the budget runs out, which unwinds the whole search.
	var err error
	var dfs func(remaining uint64, state any) bool
	dfs = func(remaining uint64, state any) bool {
		if remaining == 0 {
			return true
		}
		memo := config{remaining, spec.Key(state)}
		if _, ok := seen[memo]; ok {
			return false
		}
		if len(seen) == searchBudget {
			err = fmt.Errorf("%w: more than %d configurations explored", ErrTooLarge, searchBudget)
			return false
		}
		seen[memo] = struct{}{}

		// minReturn: the earliest response among remaining operations. An
		// operation may be linearized next only if it was invoked before
		// that response (otherwise some remaining operation finished
		// entirely before it began).
		minReturn := int64(1) << 62
		for i := 0; i < n; i++ {
			if remaining&(1<<uint(i)) != 0 && ops[i].Return < minReturn {
				minReturn = ops[i].Return
			}
		}
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if remaining&bit == 0 || ops[i].Invoke > minReturn {
				continue
			}
			if ns, ok := spec.Step(state, ops[i]); ok {
				if dfs(remaining&^bit, ns) {
					return true
				}
				if err != nil {
					return false
				}
			}
		}
		return false
	}
	ok := dfs(full, spec.Init())
	if err != nil {
		return false, err
	}
	return ok, nil
}

// LinearizablePartitioned splits the history into independent
// sub-histories (e.g. per key for a map whose operations each touch one
// key) and checks each part separately. This is sound whenever operations
// of different parts commute in the sequential specification — then a
// global linearization exists iff each part has one — and it lets much
// longer histories be checked than the 64-operation global limit.
func LinearizablePartitioned(ops []Operation, partOf func(Operation) string, spec func(part string) Spec) (bool, error) {
	parts := make(map[string][]Operation)
	for _, op := range ops {
		p := partOf(op)
		parts[p] = append(parts[p], op)
	}
	for p, sub := range parts {
		ok, err := Linearizable(sub, spec(p))
		if err != nil {
			return false, fmt.Errorf("partition %q: %w", p, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
