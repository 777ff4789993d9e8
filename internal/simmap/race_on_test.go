//go:build race

package simmap

// raceEnabled reports whether the race detector is on. The detector's
// shadow-memory machinery allocates on its own, so the strict steady-state
// allocation bounds only hold without it.
const raceEnabled = true
