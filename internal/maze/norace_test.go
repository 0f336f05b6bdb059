//go:build !race

package maze

const raceEnabled = false
