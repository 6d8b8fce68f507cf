package profile

import (
	"slices"
	"testing"

	"needle/internal/ballarus"
	"needle/internal/ir"
)

// TestFromDataTailRule: decode accepts a partial tail only where a run
// resumes — the entry block with no completed occurrence or after a
// returning one, across the back edge after one that ended at a latch —
// continuing along forward edges, and every tail it accepts encodes back
// to the same Data.
func TestFromDataTailRule(t *testing.T) {
	f, err := ir.ParseFunction(biasedLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := ballarus.Build(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	// Blocks: entry 0, head 1, body 2, rare 3, common 4, latch 5, exit 6;
	// latch->head is the back edge.
	path := func(idx ...int) int64 {
		bs := make([]*ir.Block, len(idx))
		for i, x := range idx {
			bs[i] = f.Blocks[x]
		}
		id, err := dag.Encode(bs)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	toLatch := path(0, 1, 2, 4, 5) // ends at the back edge's source
	returns := path(0, 1, 6)
	for _, tc := range []struct {
		name  string
		paths []int64
		tail  []int32
		ok    bool
	}{
		{"fresh run from entry", nil, []int32{0, 1, 2}, true},
		{"fresh run off entry", nil, []int32{4}, false},
		{"fresh run across the back edge", nil, []int32{0, 1, 2, 4, 5, 1}, false},
		{"after a latch, across its back edge", []int64{toLatch}, []int32{1, 2, 3}, true},
		{"after a latch, at the entry", []int64{toLatch}, []int32{0}, false},
		{"after a latch, around the loop again", []int64{toLatch}, []int32{1, 2, 3, 5, 1}, false},
		{"after a return, from entry", []int64{returns}, []int32{0, 1}, true},
		{"after a return, at the header", []int64{returns}, []int32{1, 2}, false},
	} {
		d := &Data{Paths: tc.paths, Tail: tc.tail}
		if tc.paths != nil {
			d.Ranks = []int32{0}
		}
		fp, err := FromData(nil, f, d)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: FromData error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil {
			continue
		}
		back, err := fp.Data()
		if err != nil {
			t.Fatalf("%s: accepted tail does not encode: %v", tc.name, err)
		}
		if !slices.Equal(back.Tail, d.Tail) || !slices.Equal(back.Paths, d.Paths) {
			t.Fatalf("%s: encodes to %+v, want %+v", tc.name, back, d)
		}
	}
}
