//go:build !race

package rsm

const raceEnabled = false
