//go:build paced && !race

package server

// raceEnabled reports whether the race detector is compiled in; real-time
// pacing tests skip under it because instrumented simulation runs slower
// than the wall clock it is paced against.
const raceEnabled = false
