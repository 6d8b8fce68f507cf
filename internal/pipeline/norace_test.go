//go:build !race

package pipeline

// raceEnabled reports whether the race detector instruments the test
// binary (see race_test.go).
const raceEnabled = false
