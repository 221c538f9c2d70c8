//go:build race

package prog

// raceEnabled: the race detector allocates on its own and drops pooled
// values at random, so allocation pins skip under it.
const raceEnabled = true
