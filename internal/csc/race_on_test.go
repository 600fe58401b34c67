//go:build race

package csc

// raceEnabled reports whether this test binary runs under the race
// detector, whose shadow bookkeeping distorts allocation counts.
const raceEnabled = true
