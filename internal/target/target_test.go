package target

import (
	"testing"

	"needle/internal/pipeline"
)

func TestBackendsRegisteredInOrder(t *testing.T) {
	want := []string{"sim", "cgra", "hls", "energy"}
	bs := pipeline.Backends()
	if len(bs) != len(want) {
		t.Fatalf("got %d backends, want %d", len(bs), len(want))
	}
	for i, b := range bs {
		if b.Name() != want[i] {
			t.Errorf("backend %d = %q, want %q", i, b.Name(), want[i])
		}
	}
}

func TestReportBackendNamesMatch(t *testing.T) {
	reports := []pipeline.Report{&SimReport{}, &CGRAReport{}, &HLSReport{}, &EnergyReport{}}
	for i, b := range pipeline.Backends() {
		if got := reports[i].BackendName(); got != b.Name() {
			t.Errorf("report %d names backend %q, want %q", i, got, b.Name())
		}
	}
}

// Backends that map the hot braid frame must degrade to an explicit
// zero-valued report — not an error — when the workload formed none.
func TestFrameBackendsWithoutFrame(t *testing.T) {
	a := &pipeline.Artifacts{
		Config: pipeline.DefaultConfig(),
		Frame:  &pipeline.FrameArtifact{},
	}
	rep, err := CGRA{}.Evaluate(a)
	if err != nil {
		t.Fatalf("CGRA: %v", err)
	}
	if cr := rep.(*CGRAReport); cr.Scheduled || cr.DataflowCycles != 0 {
		t.Fatalf("CGRA report not zero: %+v", cr)
	}
	rep, err = HLS{}.Evaluate(a)
	if err != nil {
		t.Fatalf("HLS: %v", err)
	}
	if hr := rep.(*HLSReport); hr.Synthesized || hr.ALMs != 0 {
		t.Fatalf("HLS report not zero: %+v", hr)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	pipeline.Register(Sim{})
}
