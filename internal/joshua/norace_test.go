//go:build !race

package joshua

const raceEnabled = false
