//go:build race

package msq

// raceEnabled reports that the race detector is compiled in; the traced
// overhead gate skips then, because instrumentation skews its timing.
const raceEnabled = true
