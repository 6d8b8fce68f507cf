package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRangesCoverInOrder checks that the ranges partition [0, n) into w
// contiguous ranges in order, each index visited exactly once.
func TestRangesCoverInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 13, 100} {
		for _, w := range []int{0, 1, 2, 3, 4, 13, 200} {
			seen := make([]int32, n)
			bounds := make([][2]int, max(min(w, n), 1))
			var calls atomic.Int32
			Ranges(n, w, func(k, lo, hi int) {
				calls.Add(1)
				bounds[k] = [2]int{lo, hi}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			if want := int32(min(max(w, 1), n)); calls.Load() != want {
				t.Fatalf("n=%d w=%d: %d calls, want %d", n, w, calls.Load(), want)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
			for k := 1; k < int(calls.Load()); k++ {
				if bounds[k][0] != bounds[k-1][1] || bounds[k][0] >= bounds[k][1] {
					t.Fatalf("n=%d w=%d: ranges %v are not contiguous and nonempty", n, w, bounds)
				}
			}
		}
	}
}

// TestRangesReraisesPanics checks that a panic on a worker goroutine reaches
// the caller, once every range has returned.
func TestRangesReraisesPanics(t *testing.T) {
	var done atomic.Int32
	got := func() (p any) {
		defer func() { p = recover() }()
		Ranges(4, 4, func(k, lo, hi int) {
			defer done.Add(1)
			if k == 3 {
				panic(fmt.Sprintf("range %d", k))
			}
		})
		return nil
	}()
	if got != "range 3" {
		t.Fatalf("recovered %v, want the worker's panic", got)
	}
	if done.Load() != 4 {
		t.Fatalf("%d of 4 ranges returned before the panic was re-raised", done.Load())
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ work, floor, want int }{
		{0, 512, 1},
		{511, 512, 1},
		{1 << 20, 512, procs},
		{3, 1, min(3, procs)},
	} {
		if got := Workers(c.work, c.floor); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.work, c.floor, got, c.want)
		}
	}
}

var sink int64

// BenchmarkRangesHandoff measures what one fork/join costs beyond the work
// itself: two ranges of a trivial body, one on a fresh goroutine. In
// "spinning" the calls come back to back, so the second P is still awake;
// in "parked" each call follows a 500 µs sleep, so it is asleep, as it is
// between one analysis's forks. handoff-ns/op times the call alone. The
// callers' work floors are set well above the parked cost.
func BenchmarkRangesHandoff(b *testing.B) {
	for _, c := range []struct {
		name string
		gap  time.Duration
	}{{"spinning", 0}, {"parked", 500 * time.Microsecond}} {
		b.Run(c.name, func(b *testing.B) {
			var parts [2]int64
			var spent time.Duration
			for i := 0; i < b.N; i++ {
				if c.gap > 0 {
					time.Sleep(c.gap)
				}
				t0 := time.Now()
				Ranges(2, 2, func(k, lo, hi int) { parts[k] += int64(hi - lo) })
				spent += time.Since(t0)
			}
			sink = parts[0] + parts[1]
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "handoff-ns/op")
		})
	}
}
