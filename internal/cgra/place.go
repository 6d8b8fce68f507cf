package cgra

import (
	"sync"

	"needle/internal/frame"
)

// spiralOrders[want] lists every slot of a rows×cols grid sorted by
// (Manhattan distance from want, slot index) — the exact visit order of the
// linear nearest-free scan, precomputed so each placement walks
// only as far as the first free slot instead of scoring the whole grid.
// Orders are cached per geometry: the sweep places every frame on the same
// fabric, so the table is built once. The cache holds at most
// maxSpiralGeometries geometries and is emptied when a new one would
// exceed that, so configs that vary the grid cannot grow it without bound.
// A geometry's table is (Rows·Cols)² slots, which sim.Config.Check bounds.
const maxSpiralGeometries = 8

var (
	spiralMu    sync.Mutex
	spiralCache = map[int][][]uint16{}
)

func spiralOrders(rows, cols int) [][]uint16 {
	key := rows<<16 | cols
	spiralMu.Lock()
	defer spiralMu.Unlock()
	if o := spiralCache[key]; o != nil {
		return o
	}
	capacity := rows * cols
	maxD := rows + cols
	orders := make([][]uint16, capacity)
	flat := make([]uint16, capacity*capacity) // one backing array for all wants
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	for want := 0; want < capacity; want++ {
		o := flat[want*capacity : want*capacity : (want+1)*capacity]
		wr, wc := want/cols, want%cols
		for d := 0; d <= maxD; d++ {
			for s := 0; s < capacity; s++ {
				if abs(s/cols-wr)+abs(s%cols-wc) == d {
					o = append(o, uint16(s))
				}
			}
		}
		orders[want] = o
	}
	if len(spiralCache) >= maxSpiralGeometries {
		clear(spiralCache)
	}
	spiralCache[key] = orders
	return orders
}

// place maps the frame onto a rows×cols fabric greedily: ops are placed in
// dependence order at the free FU nearest the centroid of their producers
// (network locality), with a spiral search for the nearest free slot. This
// mirrors the locality-driven placement CGRA compilers use and makes the
// 12 pJ "switch+link" energy a per-hop cost instead of a per-edge constant.
// When a frame has more ops than FUs, units are time-multiplexed (ops wrap
// around the grid), exactly what the 16-cycle reconfigurable fabric does
// for large frames.
//
// place writes op i's FU, at (pos[i]/cols, pos[i]%cols), into pos (one
// entry per op) and marks occupied FUs in used, a zeroed bit set of
// (rows·cols+63)/64 words; both are the caller's tables, so placing
// allocates nothing. It returns
// the mean Manhattan hop distance of the operand routes (0 when there are
// none) and how many ops share an FU with an earlier op.
func place(fr *frame.Frame, rows, cols int, pos, used []int64) (avgHops float64, multiplexed int) {
	capacity := rows * cols
	placed := 0
	orders := spiralOrders(rows, cols)

	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	dist := func(a, b int) int {
		ar, ac := a/cols, a%cols
		br, bc := b/cols, b%cols
		return abs(ar-br) + abs(ac-bc)
	}
	// nearestFree finds the unused FU closest to want: the first free slot
	// in the precomputed (distance, index) spiral order, which matches a
	// full-grid scan's lowest-index-at-minimum-distance choice.
	nearestFree := func(want int) int {
		for _, s := range orders[want] {
			if used[s>>6]&(1<<(s&63)) == 0 {
				return int(s)
			}
		}
		return -1
	}

	routes, totalHops := 0, 0
	for i, op := range fr.Ops {
		want := capacity / 2 // default: middle of the fabric
		if len(op.Deps) > 0 {
			var sr, sc int
			for _, d := range op.Deps {
				sr += int(pos[d]) / cols
				sc += int(pos[d]) % cols
			}
			want = (sr/len(op.Deps))*cols + sc/len(op.Deps)
		}
		slot := -1
		if placed < capacity {
			slot = nearestFree(want)
		}
		if slot < 0 {
			// Grid full: time-multiplex onto the desired unit.
			slot = want % capacity
			multiplexed++
		} else {
			used[slot>>6] |= 1 << (slot & 63)
			placed++
		}
		pos[i] = int64(slot)
		for _, d := range op.Deps {
			totalHops += dist(int(pos[d]), slot)
			routes++
		}
	}
	if routes > 0 {
		avgHops = float64(totalHops) / float64(routes)
	}
	return avgHops, multiplexed
}
