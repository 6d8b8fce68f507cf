package profile

import (
	"slices"
	"testing"

	"needle/internal/ballarus"
	"needle/internal/ir"
)

// TestFromDataTailRule: decode accepts a completed occurrence or a partial
// tail only where a run resumes — the entry block first and after a
// returning occurrence, across the back edge after one that ended at a
// latch — with the tail continuing along forward edges, and every trace it
// accepts encodes back to the same Data.
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
		bs := make([]int32, len(idx))
		for i, x := range idx {
			bs[i] = int32(x)
		}
		id, err := dag.Encode(bs)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	toLatch := path(0, 1, 2, 4, 5) // ends at the back edge's source
	returns := path(0, 1, 6)
	loop := path(1, 2, 4, 5) // starts across the back edge
	leave := path(1, 6)      // likewise, and returns
	for _, tc := range []struct {
		name  string
		paths []int64
		ranks []int32 // nil: the one path once, when there is one
		tail  []int32
		ok    bool
	}{
		{"first occurrence off entry", []int64{loop}, []int32{0, 0}, nil, false},
		{"occurrences around the loop", []int64{loop, toLatch}, []int32{1, 0, 0}, nil, true},
		{"an occurrence leaving the loop", []int64{toLatch, leave}, []int32{0, 1}, nil, true},
		{"an occurrence at the entry after a latch", []int64{toLatch}, []int32{0, 0}, nil, false},
		{"an occurrence at the header after a return", []int64{returns, leave}, []int32{0, 1}, nil, false},
		{"two runs from entry", []int64{returns}, []int32{0, 0}, nil, true},
		{"fresh run from entry", nil, nil, []int32{0, 1, 2}, true},
		{"fresh run off entry", nil, nil, []int32{4}, false},
		{"fresh run across the back edge", nil, nil, []int32{0, 1, 2, 4, 5, 1}, false},
		{"after a latch, across its back edge", []int64{toLatch}, nil, []int32{1, 2, 3}, true},
		{"after a latch, at the entry", []int64{toLatch}, nil, []int32{0}, false},
		{"after a latch, around the loop again", []int64{toLatch}, nil, []int32{1, 2, 3, 5, 1}, false},
		{"after a return, from entry", []int64{returns}, nil, []int32{0, 1}, true},
		{"after a return, at the header", []int64{returns}, nil, []int32{1, 2}, false},
	} {
		d := &Data{Paths: tc.paths, Runs: runsOf(tc.ranks), Tail: tc.tail}
		if tc.paths != nil && tc.ranks == nil {
			d.Runs = []Run{{Rank: 0, Len: 1}}
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
		if !slices.Equal(back.Tail, d.Tail) || !slices.Equal(back.Paths, d.Paths) || !slices.Equal(back.Runs, d.Runs) {
			t.Fatalf("%s: encodes to %+v, want %+v", tc.name, back, d)
		}
	}
}

// runsOf codes a trace of ranks as its maximal runs.
func runsOf(ranks []int32) []Run {
	var runs []Run
	for _, r := range ranks {
		if n := len(runs); n > 0 && runs[n-1].Rank == r {
			runs[n-1].Len++
			continue
		}
		runs = append(runs, Run{Rank: r, Len: 1})
	}
	return runs
}
