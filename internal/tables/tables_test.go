package tables

import (
	"context"
	"strings"
	"testing"

	"needle/internal/core"
	"needle/internal/obs"
	"needle/internal/pipeline"
)

// smallSuite runs the sweep at a reduced problem size to keep tests fast.
func smallSuite(t testing.TB) *Suite {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.N = 2500
	s, err := Run(context.Background(), core.New(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s
}

var cached *Suite

func suite(t testing.TB) *Suite {
	if cached == nil {
		cached = smallSuite(t)
	}
	return cached
}

func TestSuiteCoversAllWorkloads(t *testing.T) {
	s := suite(t)
	if len(s.Analyses) != 29 {
		t.Fatalf("analyzed %d workloads, want 29", len(s.Analyses))
	}
	if s.ByName("470.lbm") == nil || s.ByName("swaptions") == nil {
		t.Fatal("ByName lookup failed")
	}
	if s.ByName("missing") != nil {
		t.Fatal("phantom workload")
	}
}

func TestAllTablesRender(t *testing.T) {
	s := suite(t)
	for name, fn := range map[string]func() string{
		"TableI": s.TableI, "Figure4": s.Figure4, "Figure5": s.Figure5,
		"Figure6": s.Figure6, "TableII": s.TableII, "TableIII": s.TableIII,
		"TableIV": s.TableIV, "Figure9": s.Figure9, "Figure10": s.Figure10,
		"TableHLS": s.TableHLS, "TableV": s.TableV,
	} {
		out := fn()
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short:\n%s", name, out)
		}
		if strings.Count(out, "\n") < 5 {
			t.Errorf("%s has too few rows", name)
		}
	}
}

func TestFigure3Demonstration(t *testing.T) {
	out := Figure3(core.New())
	if !strings.Contains(out, "feasible=false") {
		t.Errorf("Figure 3 superblock should be infeasible:\n%s", out)
	}
	if !strings.Contains(out, "merges 2 paths") {
		t.Errorf("Figure 3 braid should merge the two alternating paths:\n%s", out)
	}
}

// TestFigure3WarmStoreCapturesNothing: Figure 3 analyzes its kernel on the
// caller's analyzer, so a second process-like run over a filled disk store
// (a new store handle on the same directory) decodes the kernel's profile
// instead of capturing it again, and renders the same text.
func TestFigure3WarmStoreCapturesNothing(t *testing.T) {
	dir := t.TempDir()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	var outs [2]string
	for i := range outs {
		obs.Reset()
		st, err := pipeline.NewDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = Figure3(core.New(core.WithStore(st)))
		want := int64(1 - i)
		if got := obs.GetCounter("sim.captures").Value(); got != want {
			t.Errorf("run %d: sim.captures = %d, want %d", i, got, want)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("warm Figure 3 differs from cold:\n%s\nvs\n%s", outs[1], outs[0])
	}
}

// TestPaperShapeConstraints checks the qualitative claims the paper makes
// about its own numbers, at reduced scale.
func TestPaperShapeConstraints(t *testing.T) {
	s := suite(t)
	var braidMean, oracleMean, energyMean float64
	braidBeatsOracle := 0
	for _, a := range s.Analyses {
		braidMean += a.BraidChoice.Result.Improvement
		oracleMean += a.PathOracle.Improvement
		energyMean += a.BraidChoice.Result.EnergyReduction
		// "In all but one workload, the highest ranked Braid provides equal
		// or greater performance than a BL-Path with the Oracle predictor."
		// We allow a small slack band at reduced problem size.
		if a.BraidChoice.Result.Improvement >= a.PathOracle.Improvement-0.05 {
			braidBeatsOracle++
		}
	}
	n := float64(len(s.Analyses))
	braidMean /= n
	oracleMean /= n
	energyMean /= n
	if braidMean <= 0.10 {
		t.Errorf("braid mean improvement = %.1f%%, want clearly positive", braidMean*100)
	}
	if oracleMean <= 0.10 {
		t.Errorf("path oracle mean improvement = %.1f%%, want clearly positive", oracleMean*100)
	}
	if energyMean <= 0.05 {
		t.Errorf("braid mean energy reduction = %.1f%%, want positive", energyMean*100)
	}
	if braidBeatsOracle < len(s.Analyses)*3/5 {
		t.Errorf("braid >= oracle-path in only %d of %d workloads", braidBeatsOracle, len(s.Analyses))
	}
	// Selected braids must never degrade much: the filter stage falls back
	// to no offload.
	for _, a := range s.Analyses {
		if a.BraidChoice.Result.Improvement < -1e-9 && a.BraidChoice.Policy != "none" {
			t.Errorf("%s: selected braid degrades by %.1f%%", a.Workload.Name, -a.BraidChoice.Result.Improvement*100)
		}
	}
}

func TestPathCountOrdering(t *testing.T) {
	s := suite(t)
	// The chess engines and bzip2 must execute far more paths than the
	// streaming kernels (Table II's defining contrast).
	crafty := s.ByName("186.crafty").Profile.NumExecutedPaths()
	lbm := s.ByName("470.lbm").Profile.NumExecutedPaths()
	if crafty < 50*lbm {
		t.Errorf("crafty paths (%d) should dwarf lbm paths (%d)", crafty, lbm)
	}
}

func TestFigure2Shape(t *testing.T) {
	s := suite(t)
	out := s.Figure2()
	if !strings.Contains(out, "hyperblock") {
		t.Fatalf("figure 2 missing columns:\n%s", out)
	}
	// The design-space claim: speculative braids beat the non-speculative
	// predicated baseline on average.
	var hb, br float64
	for _, a := range s.Analyses {
		hb += a.HyperblockResult.Improvement
		br += a.BraidChoice.Result.Improvement
	}
	if br <= hb {
		t.Fatalf("braid mean (%.2f) should beat hyperblock mean (%.2f)", br, hb)
	}
}

// TestDefaultScaleSoak runs the whole suite at the workloads' default
// problem sizes — the exact configuration `needle -all` uses — unless
// -short is set.
func TestDefaultScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s, err := Run(context.Background(), core.New(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var braid, energy float64
	for _, a := range s.Analyses {
		braid += a.BraidChoice.Result.Improvement
		energy += a.BraidChoice.Result.EnergyReduction
		if a.BraidChoice.Result.Improvement < -1e-9 {
			t.Errorf("%s: selected braid degrades", a.Workload.Name)
		}
		if a.BraidChoice.Result.EnergyReduction < -1e-9 {
			t.Errorf("%s: selected braid loses energy", a.Workload.Name)
		}
	}
	n := float64(len(s.Analyses))
	braid /= n
	energy /= n
	// The paper's headline bands, with generous slack for model evolution.
	if braid < 0.25 || braid > 0.70 {
		t.Errorf("braid mean improvement %.1f%% outside the expected band", braid*100)
	}
	if energy < 0.10 || energy > 0.35 {
		t.Errorf("mean energy reduction %.1f%% outside the expected band", energy*100)
	}
}

// TestParallelMatchesSerial runs the full sweep with a worker pool and
// checks every rendered table and figure is byte-identical to the serial
// result. Run under -race this also exercises the harness's concurrency.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.N = 1500
	serial, err := Run(context.Background(), core.New(core.WithJobs(1)), cfg)
	if err != nil {
		t.Fatalf("serial Run: %v", err)
	}
	par, err := Run(context.Background(), core.New(core.WithJobs(4)), cfg)
	if err != nil {
		t.Fatalf("parallel Run: %v", err)
	}
	if len(serial.Analyses) != len(par.Analyses) {
		t.Fatalf("analysis counts differ: %d vs %d", len(serial.Analyses), len(par.Analyses))
	}
	for i := range serial.Analyses {
		if serial.Analyses[i].Workload.Name != par.Analyses[i].Workload.Name {
			t.Fatalf("row %d order differs: %s vs %s",
				i, serial.Analyses[i].Workload.Name, par.Analyses[i].Workload.Name)
		}
	}
	for _, p := range Parts {
		if got, want := p.Render(par), p.Render(serial); got != want {
			t.Errorf("%s differs between parallel and serial runs", p.Name)
		}
	}
}
