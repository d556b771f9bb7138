//go:build !race

package metric

const raceEnabled = false
