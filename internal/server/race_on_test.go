//go:build paced && race

package server

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
