//go:build !race

package prog

const raceEnabled = false
