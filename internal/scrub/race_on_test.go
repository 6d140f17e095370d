//go:build race

package scrub

// raceEnabled reports whether the race detector instruments this build; the
// relative-throughput guard skips itself when it does.
const raceEnabled = true
