package pipeline

import (
	"testing"

	"needle/internal/program"
)

// Two different programs that share an entry-function name. Before the
// digest-keyed cache this was the silent-staleness hazard: artifacts were
// keyed by bare name, so the second program would be served the first
// program's cached stages.
const collisionSrcA = `func @kernel(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [body: r4]
  r5 = cmp.lt r3, r1
  condbr r5, %body, %exit
body:
  r6 = const.i64 1
  r4 = add r3, r6
  br %head
exit:
  ret r3
}
`

const collisionSrcB = `func @kernel(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [body: r4]
  r5 = cmp.lt r3, r1
  condbr r5, %body, %exit
body:
  r6 = const.i64 2
  r4 = add r3, r6
  br %head
exit:
  ret r3
}
`

func loadCollision(t *testing.T, src string, arg string) *program.Program {
	t.Helper()
	p, err := program.Load(src, program.LoadOptions{Args: []string{arg}})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

// TestNameCollisionDistinctFingerprints: same name, different bodies (or
// different setup) must never share a run fingerprint.
func TestNameCollisionDistinctFingerprints(t *testing.T) {
	cfg := DefaultConfig()
	pA := loadCollision(t, collisionSrcA, "50")
	pB := loadCollision(t, collisionSrcB, "50")
	if pA.Name != pB.Name {
		t.Fatalf("test setup: names diverge (%s vs %s)", pA.Name, pB.Name)
	}
	if Fingerprint(pA, cfg) == Fingerprint(pB, cfg) {
		t.Error("different program bodies under one name share a fingerprint")
	}
	// Same body, different arguments is also a different computation.
	pA2 := loadCollision(t, collisionSrcA, "51")
	if Fingerprint(pA, cfg) == Fingerprint(pA2, cfg) {
		t.Error("different arguments under one name share a fingerprint")
	}
	// And the digest must be deterministic: an independently loaded copy
	// maps onto the same key, or warm starts would never hit.
	pA3 := loadCollision(t, collisionSrcA, "50")
	if Fingerprint(pA, cfg) != Fingerprint(pA3, cfg) {
		t.Error("identical programs do not share a fingerprint")
	}
}

// TestNameCollisionNoWarmStoreCrossHit is the disk-tier regression test: a
// warm DiskStore populated by one program must serve zero artifacts to a
// different program with the same name, and both runs must produce their
// own (distinct) results.
func TestNameCollisionNoWarmStoreCrossHit(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	pA := loadCollision(t, collisionSrcA, "50")
	pB := loadCollision(t, collisionSrcB, "50")

	cold, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	aA, err := Run(pA, cfg, RunOptions{Store: cold})
	if err != nil {
		t.Fatal(err)
	}
	if n := cold.DiskLen(); n != 2 {
		t.Fatalf("cold run persisted %d artifacts, want 2 (profile, select)", n)
	}

	warm, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	aB, err := Run(pB, cfg, RunOptions{Store: warm})
	if err != nil {
		t.Fatal(err)
	}
	for stage, cs := range warm.Stats() {
		if cs.DiskHits != 0 {
			t.Errorf("stage %s served %d artifacts across the name collision", stage, cs.DiskHits)
		}
	}
	// The two kernels count by 1 vs by 2, so a cross-hit would also be
	// visible in the profile: equal dynamic weight means B ran A's capture.
	wA := aA.Profile.Trace.Profile.TotalWeight
	wB := aB.Profile.Trace.Profile.TotalWeight
	if wA == wB {
		t.Errorf("collision run reproduced the other program's profile (weight %d)", wA)
	}

	// The genuinely identical program still warm-starts from the same dir.
	warm2, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(loadCollision(t, collisionSrcA, "50"), cfg, RunOptions{Store: warm2}); err != nil {
		t.Fatal(err)
	}
	var diskHits int64
	for _, cs := range warm2.Stats() {
		diskHits += cs.DiskHits
	}
	if diskHits != 2 {
		t.Errorf("identical program warm-started %d stages from disk, want 2", diskHits)
	}
}
