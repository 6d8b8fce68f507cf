package cgra

import (
	"math/rand"
	"testing"

	"needle/internal/frame"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/workloads"
)

func workloadFrame(t testing.TB, name string, n int) *frame.Frame {
	t.Helper()
	w := workloads.ByName(name)
	f, args, memory := w.Instance(n)
	fp, err := profile.CollectFunction(nil, f, args, memory, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := frame.Build(nil, region.FromPath(f, fp.HottestPath()), frame.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// placeFrame places fr on cfg's fabric, into fresh tables.
func placeFrame(fr *frame.Frame, cfg Config) (pos []int64, avgHops float64, multiplexed int) {
	pos = make([]int64, len(fr.Ops))
	avgHops, multiplexed = place(fr, cfg.Rows, cfg.Cols, pos, make([]int64, (cfg.Rows*cfg.Cols+63)/64))
	return pos, avgHops, multiplexed
}

func TestPlaceAssignsDistinctFUsWhenTheyFit(t *testing.T) {
	fr := workloadFrame(t, "429.mcf", 600) // small frame
	cfg := DefaultConfig()
	placed, _, multiplexed := placeFrame(fr, cfg)
	if multiplexed != 0 {
		t.Fatalf("small frame multiplexed %d ops on a %d-FU grid", multiplexed, cfg.Rows*cfg.Cols)
	}
	seen := make(map[int64]bool)
	for _, pos := range placed {
		if seen[pos] {
			t.Fatal("two ops share an FU despite free capacity")
		}
		seen[pos] = true
		if pos < 0 || pos >= int64(cfg.Rows*cfg.Cols) {
			t.Fatalf("position %d outside the grid", pos)
		}
	}
}

func TestPlaceTimeMultiplexesLargeFrames(t *testing.T) {
	fr := workloadFrame(t, "470.lbm", 400) // ~380 ops > 128 FUs
	cfg := DefaultConfig()
	_, _, multiplexed := placeFrame(fr, cfg)
	if multiplexed == 0 {
		t.Fatal("lbm's frame exceeds the grid; expected multiplexing")
	}
	if got := len(fr.Ops) - multiplexed; got != cfg.Rows*cfg.Cols {
		t.Fatalf("placed %d ops on a %d-FU grid", got, cfg.Rows*cfg.Cols)
	}
}

func TestPlaceBeatsRandomPlacement(t *testing.T) {
	fr := workloadFrame(t, "456.hmmer", 600)
	cfg := DefaultConfig()
	_, avgHops, _ := placeFrame(fr, cfg)

	// Random placement baseline (averaged over a few shuffles).
	r := rand.New(rand.NewSource(1))
	capacity := cfg.Rows * cfg.Cols
	var randHops float64
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		perm := r.Perm(capacity)
		total, routes := 0, 0
		for i, op := range fr.Ops {
			for _, d := range op.Deps {
				a, b := perm[d%capacity], perm[i%capacity]
				dr := a/cfg.Cols - b/cfg.Cols
				if dr < 0 {
					dr = -dr
				}
				dc := a%cfg.Cols - b%cfg.Cols
				if dc < 0 {
					dc = -dc
				}
				total += dr + dc
				routes++
			}
		}
		randHops += float64(total) / float64(routes)
	}
	randHops /= trials
	if avgHops >= randHops {
		t.Fatalf("greedy placement (%.2f avg hops) should beat random (%.2f)", avgHops, randHops)
	}
}

func TestRoutingEnergyAblation(t *testing.T) {
	fr := workloadFrame(t, "456.hmmer", 600)
	placed := Schedule(fr, DefaultConfig())
	uniformCfg := DefaultConfig()
	uniformCfg.UniformRouting = true
	uniform := Schedule(fr, uniformCfg)
	// With ~2 average hops, placement-aware routing costs more energy per
	// op than the optimistic one-hop assumption.
	if placed.OpPJ <= uniform.OpPJ {
		t.Fatalf("placed routing (%.1f pJ/op) should exceed uniform (%.1f pJ/op)", placed.OpPJ, uniform.OpPJ)
	}
	if placed.AvgHops <= 1 || placed.AvgHops > 6 {
		t.Fatalf("avg hops = %.2f out of the plausible band", placed.AvgHops)
	}
	if uniform.AvgHops != 1 {
		t.Fatalf("uniform routing should report 1 hop, got %v", uniform.AvgHops)
	}
	// Timing is placement-independent in this model.
	if placed.DataflowCycles != uniform.DataflowCycles {
		t.Fatal("routing model must not change the schedule length")
	}
}
