// Package par splits the independent parts of one analysis across idle Ps:
// a fork/join over contiguous index ranges. Each caller states a work floor
// below which the handoff costs more than it saves, so small inputs run in
// line on the calling goroutine. Callers keep their output independent of
// the split: every index's result depends on that index alone, and ranges
// are contiguous and in order, so whatever they combine afterwards is
// combined in index order.
package par

import (
	"runtime"
	"sync"
)

// Workers returns how many workers work units should be split across: one
// per floor (> 0) units, at most GOMAXPROCS and at least one.
func Workers(work, floor int) int {
	return max(1, min(runtime.GOMAXPROCS(0), work/floor))
}

// Ranges splits [0, n) into w contiguous ranges of near-equal length, w
// clamped to [1, n], and calls body(k, lo, hi) for range k = 0..w-1. Range 0
// runs on the calling goroutine, the others on goroutines of their own, and
// Ranges returns once every call has. A panic in any call is re-raised on
// the calling goroutine after the others finish, so a caller that recovers
// panics still sees it.
func Ranges(n, w int, body func(k, lo, hi int)) {
	w = min(w, n)
	if w <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	j := new(join)
	j.wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer j.wg.Done()
			j.run(k, k*n/w, (k+1)*n/w, body)
		}()
	}
	j.run(0, 0, n/w, body)
	j.wg.Wait()
	if j.panicked {
		panic(j.panic)
	}
}

// join is one Ranges call's shared state: the workers to wait for and the
// panic of the lowest range that panicked.
type join struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked bool
	first    int // the range whose panic is held
	panic    any
}

func (j *join) run(k, lo, hi int, body func(k, lo, hi int)) {
	defer func() {
		if p := recover(); p != nil {
			j.mu.Lock()
			if !j.panicked || k < j.first {
				j.panicked, j.first, j.panic = true, k, p
			}
			j.mu.Unlock()
		}
	}()
	body(k, lo, hi)
}
