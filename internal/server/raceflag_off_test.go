//go:build !race

package server

// raceEnabled reports whether the race detector instruments this build;
// allocation counts mean nothing under it.
const raceEnabled = false
