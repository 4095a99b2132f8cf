//go:build !race

package msq

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
