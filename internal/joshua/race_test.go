//go:build race

package joshua

// raceEnabled reports a -race build, under which sync.Pool drops a
// share of what is put back, so allocation counts mean nothing.
const raceEnabled = true
