//go:build race

package explore

// raceEnabled: the race detector allocates on its own and slows the
// lockstep oracles several-fold.
const raceEnabled = true
