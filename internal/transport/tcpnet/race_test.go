//go:build race

package tcpnet

// raceEnabled reports a -race build, under which allocation counts
// mean nothing.
const raceEnabled = true
