//go:build !race

package kvserver

// raceEnabled reports whether the race detector is on. The detector's
// shadow-memory machinery allocates on its own, so the allocation gates
// only hold without it.
const raceEnabled = false
