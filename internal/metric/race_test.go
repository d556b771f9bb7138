//go:build race

package metric

// raceEnabled reports a -race build, where tests that sweep millions of
// pairs sample instead: the race detector slows them tenfold.
const raceEnabled = true
