//go:build race

package cluster

// raceEnabled: the race detector allocates on its own, so
// allocation pins skip under it.
const raceEnabled = true
