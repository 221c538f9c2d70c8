package core

import "time"

// clock is the engine's one source of time (see "Time" in the package
// doc). Config.clock nil is wallClock; this package's tests pass a fake.
type clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
