//go:build race

package maze

// raceEnabled reports a -race build, whose sync.Pool drops entries at
// random and so defeats allocation-volume assertions.
const raceEnabled = true
