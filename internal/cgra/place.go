package cgra

import (
	"sync"

	"needle/internal/frame"
)

// Placement is a spatial mapping of a frame's dataflow graph onto the FU
// grid: each op gets a function unit, and operand routes are charged their
// Manhattan hop distance through the switched network. When a frame has
// more ops than FUs, units are time-multiplexed (ops wrap around the grid),
// exactly what the 16-cycle reconfigurable fabric does for large frames.
type Placement struct {
	Rows, Cols int
	// Pos assigns op i the FU at (Pos[i]/Cols, Pos[i]%Cols).
	Pos []int
	// TotalHops is the summed Manhattan length of all operand routes;
	// AvgHops the mean per route (0 when there are no routes).
	TotalHops int
	AvgHops   float64
	// Multiplexed counts ops sharing an FU with an earlier op.
	Multiplexed int
}

// spiralOrders[want] lists every slot of a rows×cols grid sorted by
// (Manhattan distance from want, slot index) — the exact visit order of the
// original linear nearest-free scan, precomputed so each placement walks
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

// Place maps the frame greedily: ops are placed in dependence order at the
// free FU nearest the centroid of their producers (network locality), with
// a spiral search for the nearest free slot. This mirrors the locality-
// driven placement CGRA compilers use and makes the 12 pJ "switch+link"
// energy a per-hop cost instead of a per-edge constant.
func Place(fr *frame.Frame, cfg Config) *Placement {
	if cfg.Rows == 0 {
		cfg = DefaultConfig()
	}
	rows, cols := cfg.Rows, cfg.Cols
	capacity := rows * cols
	p := &Placement{Rows: rows, Cols: cols, Pos: make([]int, len(fr.Ops))}
	used := make([]bool, capacity)
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
	// in the precomputed (distance, index) spiral order, which matches the
	// original full-grid scan's lowest-index-at-minimum-distance choice.
	nearestFree := func(want int) int {
		for _, s := range orders[want] {
			if !used[s] {
				return int(s)
			}
		}
		return -1
	}

	routes := 0
	for i, op := range fr.Ops {
		want := capacity / 2 // default: middle of the fabric
		if len(op.Deps) > 0 {
			var sr, sc int
			for _, d := range op.Deps {
				sr += p.Pos[d] / cols
				sc += p.Pos[d] % cols
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
			p.Multiplexed++
		} else {
			used[slot] = true
			placed++
		}
		p.Pos[i] = slot
		for _, d := range op.Deps {
			p.TotalHops += dist(p.Pos[d], slot)
			routes++
		}
	}
	if routes > 0 {
		p.AvgHops = float64(p.TotalHops) / float64(routes)
	}
	return p
}
