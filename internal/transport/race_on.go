//go:build race

package transport

// raceEnabled reports whether the race detector instruments this build:
// payload buffers are poisoned as they return to the pool (see Release).
const raceEnabled = true
