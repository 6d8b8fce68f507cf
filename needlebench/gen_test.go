package main

import (
	"reflect"
	"sort"
	"testing"
)

func TestSweepOrderDeterministic(t *testing.T) {
	a := sweepOrder(7, "sweep", 3, 29)
	if !reflect.DeepEqual(a, sweepOrder(7, "sweep", 3, 29)) {
		t.Fatal("same seed gave different orders")
	}
	if reflect.DeepEqual(a, sweepOrder(8, "sweep", 3, 29)) {
		t.Error("different seeds gave the same order")
	}
	if reflect.DeepEqual(a[:29], sweepOrder(7, "warmup", 1, 29)) {
		t.Error("the warm-up pass repeats the timed order")
	}
	for p := 0; p < 3; p++ {
		pass := append([]int(nil), a[p*29:(p+1)*29]...)
		sort.Ints(pass)
		for i, v := range pass {
			if v != i {
				t.Fatalf("pass %d is not a permutation: %v", p, a[p*29:(p+1)*29])
			}
		}
	}
}

// TestNIRRequestsDeterministic pins that a seed fixes the request sequence
// and the programs behind it, down to their content digests, and that no
// two requests of a run share a digest.
func TestNIRRequestsDeterministic(t *testing.T) {
	pool := nirPool()
	keys := func(seed int64) []string {
		b := &serveNIR{pool: pool}
		reqs := append(nirRequests(seed, "warmup", 0, 8), nirRequests(seed, "timed", 1<<20, 40)...)
		out := make([]string, len(reqs))
		for i, q := range reqs {
			p, err := b.load(q)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			out[i] = p.Key()
		}
		return out
	}
	a := keys(3)
	if !reflect.DeepEqual(a, keys(3)) {
		t.Fatal("same seed gave different programs")
	}
	seen := make(map[string]bool)
	for _, k := range a {
		if seen[k] {
			t.Fatalf("digest %s repeats within a run", k)
		}
		seen[k] = true
	}
	if reflect.DeepEqual(a, keys(4)) {
		t.Error("different seeds gave the same programs")
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	a, err := materialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] == b[i] || a[i].Key() != b[i].Key() {
			t.Errorf("%s: want a fresh program with the same key, got %s and %s", a[i].Name, a[i].Key(), b[i].Key())
		}
	}
}
