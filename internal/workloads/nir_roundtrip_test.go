package workloads_test

import (
	"testing"

	"needle/internal/ir"
	"needle/internal/passes"
	"needle/internal/workloads"
)

// roundTrip asserts Parse(Print(m)) is an identity: the reparsed module
// verifies and re-prints to exactly the original text. This property is
// what lets the artifact store reference registers by number and blocks by
// position in persisted stage artifacts.
func roundTrip(t *testing.T, name string, m *ir.Module) {
	t.Helper()
	text := ir.PrintModule(m)
	m2, err := ir.Parse(text) // Parse verifies every function
	if err != nil {
		t.Fatalf("%s: reparse failed: %v\n%s", name, err, text)
	}
	if re := ir.PrintModule(m2); re != text {
		t.Errorf("%s: round trip is not an identity\n--- printed ---\n%s\n--- reprinted ---\n%s", name, text, re)
	}
}

// TestNIRRoundTripAllKernels prints and reparses every registered workload
// kernel, both as authored and after aggressive inlining (the form the
// pipeline persists), asserting print → parse → print is an identity.
func TestNIRRoundTripAllKernels(t *testing.T) {
	ws := workloads.All()
	if len(ws) != 29 {
		t.Fatalf("expected 29 registered workloads, got %d", len(ws))
	}
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f, _, _ := w.Instance(256)
			roundTrip(t, w.Name+"/raw", ir.ModuleOf(f))

			f2, _, _ := w.Instance(256)
			inlined, err := passes.InlineAll(f2)
			if err != nil {
				t.Fatalf("inlining: %v", err)
			}
			roundTrip(t, w.Name+"/inlined", ir.ModuleOf(inlined))
		})
	}
}
