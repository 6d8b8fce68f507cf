//go:build race

package pipeline

// raceEnabled reports whether the race detector instruments the test
// binary: it moves more of fmt's arguments to the heap, so allocation
// counts pinned for a plain build do not hold.
const raceEnabled = true
