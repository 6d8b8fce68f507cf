package pm_test

import (
	"testing"

	"needle/internal/ir"
	"needle/internal/pm"
)

// TestSemanticKindsCachedAndInvalidated: the three semantic analyses are
// cached like every other kind. Since a Manager's functions never change, a
// transformed function is a new function to it: a clone gets analyses of
// its own rather than the original's.
func TestSemanticKindsCachedAndInvalidated(t *testing.T) {
	f := parse(t, loopSrc)
	am := pm.NewManager()

	s1, r1, d1 := am.SCCP(f), am.Ranges(f), am.MemDep(f)
	if s2 := am.SCCP(f); s2 != s1 {
		t.Fatal("SCCP not cached")
	}
	if r2 := am.Ranges(f); r2 != r1 {
		t.Fatal("Ranges not cached")
	}
	if d2 := am.MemDep(f); d2 != d1 {
		t.Fatal("MemDep not cached")
	}

	g := ir.CloneFunction(f)
	if am.SCCP(g) == s1 || am.Ranges(g) == r1 || am.MemDep(g) == d1 {
		t.Fatal("a clone was served the original function's analyses")
	}
}

func TestSemanticKindStrings(t *testing.T) {
	for k, want := range map[pm.Kind]string{
		pm.KindSCCP:   "sccp",
		pm.KindRanges: "ranges",
		pm.KindMemDep: "memdep",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
