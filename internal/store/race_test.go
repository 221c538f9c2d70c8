//go:build race

package store

// raceEnabled: the race detector allocates on its own, and drops what a
// sync.Pool holds at random, so allocation counts are not pinned under it.
const raceEnabled = true
