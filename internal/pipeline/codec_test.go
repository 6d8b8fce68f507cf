package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/passes"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/wire"
	"needle/internal/workloads"
)

// codecStages lists every stage with a codec, in pipeline order.
var codecStages = []string{"opt", "profile", "select"}

// stageOutput returns the artifact a's run produced for the named stage.
func stageOutput(a *Artifacts, stage string) any {
	switch stage {
	case "opt":
		return a.Opt
	case "profile":
		return a.Profile
	default:
		return a.Select
	}
}

// TestDiskStoreFillsAreByteIdentical fills two stores from the same 29
// programs and requires the same files with the same bytes: an artifact
// always encodes to the same payload. Each program persists its profile
// and select artifacts, and nothing else.
func TestDiskStoreFillsAreByteIdentical(t *testing.T) {
	cfg := testConfig()
	var dirs [2]string
	for i := range dirs {
		dirs[i] = t.TempDir()
		st, err := NewDiskStore(dirs[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads.All() {
			p, err := w.Program(cfg.N)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(p, cfg, RunOptions{Store: st}); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		}
	}
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2*29 {
		t.Fatalf("%d artifacts for 29 programs, want %d", len(entries), 2*29)
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(dirs[0], e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], e.Name()))
		if err != nil {
			t.Fatalf("%s is missing from the second fill: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two fills", e.Name())
		}
	}
	if second, _ := os.ReadDir(dirs[1]); len(second) != len(entries) {
		t.Errorf("fills hold %d and %d artifacts", len(entries), len(second))
	}
}

// TestCodecRoundTripIsIdentity checks encode(decode(b)) == b for every
// stage's payload on the two sparse-profile workloads and a dense one, at
// their default sizes.
func TestCodecRoundTripIsIdentity(t *testing.T) {
	for _, name := range []string{"164.gzip", "458.sjeng", "186.crafty"} {
		p, err := workloads.ByName(name).Program(0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Opt = name == "164.gzip" // cover the opt payload once
		a, err := Run(p, cfg, RunOptions{Store: NewCache()})
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range codecStages {
			if stage == "opt" && a.Opt == nil {
				continue
			}
			encode, decode, ok := Codec(stage)
			if !ok {
				t.Fatalf("no codec for %s", stage)
			}
			b, err := encode(a, stageOutput(a, stage))
			if err != nil {
				t.Fatalf("%s %s: encode: %v", name, stage, err)
			}
			out, err := decode(a, b)
			if err != nil {
				t.Fatalf("%s %s: decode: %v", name, stage, err)
			}
			again, err := encode(a, out)
			if err != nil {
				t.Fatalf("%s %s: re-encode: %v", name, stage, err)
			}
			if !bytes.Equal(again, b) {
				t.Errorf("%s %s: encode(decode(b)) differs from b (%d vs %d bytes)", name, stage, len(again), len(b))
			}
		}
	}
}

// TestHugeCountIsRejectedWithoutAllocating: a profile payload whose first
// count claims far more entries than it has bytes is an error, found
// before anything is allocated for the count.
func TestHugeCountIsRejectedWithoutAllocating(t *testing.T) {
	a, err := Run(testWorkload(t), testConfig(), RunOptions{Store: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	b = wire.AppendVarint(b, 1)        // baseline cycles
	b = wire.AppendFloat64(b, 1)       // baseline energy
	b = append(b, 0, 0, 0, 0, 0, 0, 0) // op mix and cache stats
	b = wire.AppendUvarint(b, 1<<60)   // path-table count
	_, decode, _ := Codec("profile")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decode(a, b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 2^60 path count decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<10 {
		t.Fatalf("rejecting a 2^60 count allocated %d bytes", n)
	}
}

// hostileRuns returns profile payloads built from a's, each with runs that
// are not the maximal runs of a trace its packed cycles hold, and the text
// its decode error must contain. Run-length coding gives a payload new ways
// to be wrong: a run that claims more occurrences than the packed cycles
// can hold, whose decode must not allocate for them, and runs that code a
// trace some other way than the one the encoder writes (an empty run, one
// run split in two, a rank outside the path table), which keep the
// occurrence count but would give one profile a second payload.
func hostileRuns(t testing.TB, a *Artifacts) []struct {
	name, want string
	payload    []byte
} {
	t.Helper()
	d, err := a.Profile.Trace.Data()
	if err != nil {
		t.Fatal(err)
	}
	runs := d.Profile.Runs
	long := slices.IndexFunc(runs, func(r profile.Run) bool { return r.Len >= 2 })
	if len(d.Profile.Paths) < 2 || long < 0 {
		t.Fatalf("%d paths in %d runs: need two paths and a run of two occurrences", len(d.Profile.Paths), len(runs))
	}
	last := runs[len(runs)-1]
	split := slices.Clone(runs)
	split[long].Len--
	split = slices.Insert(split, long, profile.Run{Rank: runs[long].Rank, Len: 1})
	outside := slices.Clone(runs)
	outside[0].Rank = int32(len(d.Profile.Paths))
	huge := slices.Clone(runs)
	huge[long].Len = math.MaxInt32 - 1
	with := func(runs []profile.Run) []byte {
		pd := *d.Profile
		pd.Runs = runs
		td := *d
		td.Profile = &pd
		return td.Append(nil)
	}
	return []struct {
		name, want string
		payload    []byte
	}{
		{"huge run", "packed cycles", with(huge)},
		{"empty run", "0 occurrences", with(append(slices.Clone(runs), profile.Run{Rank: (last.Rank + 1) % 2, Len: 0}))},
		{"split run", "both of rank", with(split)},
		{"rank outside the table", "out of range", with(outside)},
	}
}

// hostileSelects returns select payloads built from a's, each with one
// braid its decode must refuse against a's profile: a rank at the end of
// the path table and one far past it, a braid of no paths, paths out of
// merge order, and two paths that start or end at different blocks.
func hostileSelects(t testing.TB, a *Artifacts) []struct {
	name, want string
	payload    []byte
} {
	t.Helper()
	fp := a.Profile.Trace.Profile
	n := int32(len(fp.Paths))
	// Two ranks whose paths differ in entry or exit: the hottest path and
	// the first one that does not merge with it.
	end := func(r int32) [2]int32 {
		bs := fp.Paths[r].Blocks
		return [2]int32{bs[0], bs[len(bs)-1]}
	}
	other := int32(1)
	for other < n && end(other) == end(0) {
		other++
	}
	if other == n {
		t.Fatalf("all %d paths share one entry and exit", n)
	}
	with := func(ranks ...int32) []byte {
		art := a.Select
		b := art.CFStats.Append(nil)
		b = wire.AppendUvarint(b, uint64(len(art.Braids)+1))
		for _, br := range art.Braids {
			b = br.Data(fp).Append(b)
		}
		return region.BraidData{Ranks: ranks}.Append(b)
	}
	return []struct {
		name, want string
		payload    []byte
	}{
		{"rank at the table's end", "not in profile", with(0, n)},
		{"rank past the table", "not in profile", with(n + 1000)},
		{"empty braid", "no paths", with()},
		{"ranks out of merge order", "merge order", with(other, 0)},
		{"members differ in entry or exit", "entry or exit", with(0, other)},
	}
}

// TestSelectPayloadHostileBraids: a select payload that is the stored one
// plus one braid that no BuildBraids run could produce decodes to an error
// about that braid, never a panic, while the stored payload decodes.
func TestSelectPayloadHostileBraids(t *testing.T) {
	a, err := Run(testWorkload(t), testConfig(), RunOptions{Store: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	encode, decode, _ := Codec("select")
	b, err := encode(a, a.Select)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(a, b); err != nil {
		t.Fatalf("the stored payload does not decode: %v", err)
	}
	for _, h := range hostileSelects(t, a) {
		if _, err := decode(a, h.payload); err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: decode error %v, want one about %s", h.name, err, h.want)
		}
	}
}

// TestHugeRunIsRejectedWithoutAllocating: a profile payload that is the
// stored one but for a run that claims 2^31-2 occurrences, against packed
// cycles of a few thousand bytes, is an error, found before anything is
// allocated: not the occurrences, nor the profile rebuilt first.
func TestHugeRunIsRejectedWithoutAllocating(t *testing.T) {
	a, err := Run(testWorkload(t), testConfig(), RunOptions{Store: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	huge := hostileRuns(t, a)[0]
	_, decode, _ := Codec("profile")
	n := leastAllocBytes(10, func() {
		_, err = decode(a, huge.payload)
		if err == nil || !strings.Contains(err.Error(), huge.want) {
			t.Fatalf("a run of 2^31-2 occurrences decoded with error %v, want one about %s", err, huge.want)
		}
	})
	if n > 1<<10 {
		t.Fatalf("rejecting a run of 2^31-2 occurrences allocated %d bytes", n)
	}
}

// leastAllocBytes is the fewest bytes the process allocated during one
// call of f, over n calls each measured on its own. What other goroutines
// allocate (the race detector's, the runtime's) lands in some windows; it
// is counted only if it lands in all of them.
func leastAllocBytes(n int, f func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range n {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestProfileRunsHaveOneCoding: a profile payload whose runs are not the
// maximal runs of its trace is a decode error, though its occurrences
// still match its packed cycles, while the payload it was made from
// decodes.
func TestProfileRunsHaveOneCoding(t *testing.T) {
	a, err := Run(testWorkload(t), testConfig(), RunOptions{Store: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	encode, decode, _ := Codec("profile")
	b, err := encode(a, a.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(a, b); err != nil {
		t.Fatalf("the stored payload does not decode: %v", err)
	}
	for _, h := range hostileRuns(t, a)[1:] {
		if _, err := decode(a, h.payload); err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: decode error %v, want one about %s", h.name, err, h.want)
		}
	}
}

// TestFuncCodecMatchesParser holds the positional function codec to the
// .nir parser it replaced on the decode path: for the 29 workloads' inline
// and opt functions, and 300 irgen programs inlined and optimized, the
// decoded function must be the one ir.Parse(ir.Print(f)) builds, and must
// encode to the same bytes again.
func TestFuncCodecMatchesParser(t *testing.T) {
	check := func(name string, f *ir.Function) {
		t.Helper()
		b, err := appendFunc(nil, f, name)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		r := wire.NewReader(b)
		_, got, err := readFunc(r)
		if err == nil {
			err = r.Done()
		}
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		want, err := ir.ParseFunction(ir.Print(f))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if diff := funcDiff(got, want); diff != "" {
			t.Fatalf("%s: decoded function differs from the parsed one: %s", name, diff)
		}
		again, err := appendFunc(nil, got, name)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("%s: re-encoding gives %d bytes, not the %d decoded", name, len(again), len(b))
		}
	}
	cfg := testConfig()
	cfg.Opt = true
	for _, w := range workloads.All() {
		p, err := w.Program(cfg.N)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(p, cfg, RunOptions{Store: NewCache()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		check(w.Name+" inline", a.Inline.F)
		check(w.Name+" opt", a.Opt.F)
	}
	for seed := int64(0); seed < 300; seed++ {
		f, err := passes.InlineAll(irgen.Generate(seed, irgen.DefaultConfig()).F)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("irgen %d", seed), f)
		f = ir.CloneFunction(f)
		for changed := true; changed; {
			changed = false
			for _, tr := range optTransforms {
				changed = tr.run(f) > 0 || changed
			}
		}
		check(fmt.Sprintf("irgen %d -O", seed), f)
	}
}

// funcDiff describes the first difference between two functions in
// printed text, register types, parameters, instruction types or
// predecessor order, or returns "".
func funcDiff(got, want *ir.Function) string {
	if g, w := ir.Print(got), ir.Print(want); g != w {
		return fmt.Sprintf("printed text\n%s\nwant\n%s", g, w)
	}
	if !slices.Equal(got.RegType, want.RegType) {
		return fmt.Sprintf("RegType %v, want %v", got.RegType, want.RegType)
	}
	if !slices.Equal(got.Params, want.Params) {
		return fmt.Sprintf("Params %v, want %v", got.Params, want.Params)
	}
	for i, b := range got.Blocks {
		wb := want.Blocks[i]
		if b.Index != wb.Index || len(b.Preds) != len(wb.Preds) {
			return fmt.Sprintf("block %s: index %d with %d preds, want %d with %d", b.Name, b.Index, len(b.Preds), wb.Index, len(wb.Preds))
		}
		for j, p := range b.Preds {
			if p.Index != wb.Preds[j].Index {
				return fmt.Sprintf("block %s: pred %d is %s, want %s", b.Name, j, p.Name, wb.Preds[j].Name)
			}
		}
		for j, in := range b.Instrs {
			if in.Type != wb.Instrs[j].Type {
				return fmt.Sprintf("%s.%s instr %d: type %s, want %s", got.Name, b.Name, j, in.Type, wb.Instrs[j].Type)
			}
		}
	}
	return ""
}

// lbmOpt returns 470.lbm's run under Opt and its opt payload.
func lbmOpt(t *testing.T) (*Artifacts, []byte) {
	t.Helper()
	cfg := testConfig()
	cfg.Opt = true
	a, err := Run(testWorkload(t), cfg, RunOptions{Store: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := optEncode(a, a.Opt)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestOptPayloadHostileBytes cuts and flips 470.lbm's opt payload, the
// optimized function and its removal summary: every result must decode to
// an error, or to a function that verifies and encodes again, and none may
// panic. Every prefix is tried, and every byte is flipped three ways.
func TestOptPayloadHostileBytes(t *testing.T) {
	a, b := lbmOpt(t)
	_, decode, _ := Codec("opt")
	try := func(what string, data []byte) {
		t.Helper()
		out, err := decode(a, data)
		if err != nil {
			return
		}
		f := out.(*OptArtifact).F
		if err := ir.Verify(f); err != nil {
			t.Fatalf("%s: decoded function does not verify: %v", what, err)
		}
		if _, err := ir.AppendFunction(nil, f); err != nil {
			t.Fatalf("%s: decoded function does not encode: %v", what, err)
		}
	}
	for n := 0; n < len(b); n++ {
		try(fmt.Sprintf("cut at %d", n), b[:n])
	}
	data := slices.Clone(b)
	try("whole", data)
	for i := range data {
		for _, mask := range [...]byte{0x01, 0x80, 0xff} {
			data[i] ^= mask
			try(fmt.Sprintf("byte %d ^ %#x", i, mask), data)
			data[i] ^= mask
		}
	}
}

// TestHugeInstrCountIsRejectedWithoutAllocating: an opt payload whose
// instruction total claims 2^60 instructions is an error, found before any
// arena is allocated.
func TestHugeInstrCountIsRejectedWithoutAllocating(t *testing.T) {
	a, _ := lbmOpt(t)
	f := a.Opt.F
	b := wire.AppendString(nil, f.Name)
	b = wire.AppendUints(b, f.Params)
	b = wire.AppendUvarint(b, uint64(f.NumRegs()))
	b = wire.AppendUvarint(b, uint64(len(f.Blocks)))
	b = wire.AppendUvarint(b, 1<<60) // instructions
	b = append(b, make([]byte, 64)...)
	_, decode, _ := Codec("opt")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decode(a, b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 2^60 instruction count decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<10 {
		t.Fatalf("rejecting a 2^60 instruction count allocated %d bytes", n)
	}
}

// TestFuncEncodeRefusesCalls: a function that still calls has no
// positional form, so the opt payload cannot store one.
func TestFuncEncodeRefusesCalls(t *testing.T) {
	m, err := ir.Parse(`func @main(i64) {
entry:
  r2 = call.i64 @id r1
  ret r2
}

func @id(i64) {
entry:
  ret r1
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := optEncode(nil, &OptArtifact{F: m.Funcs[0]}); err == nil {
		t.Fatal("an opt artifact with a call encoded")
	}
}

// FuzzArtifactDecode feeds arbitrary bytes straight to each stage's decode,
// with no header or CRC in front: the result must be an error or an
// artifact that encodes again, never a panic. Real payloads of every stage
// seed the corpus: each whole, cut in half, one byte short and with one
// trailing byte, the shapes wire.Reader's bounds and Done check; so do the
// profile payloads of hostileRuns, whose runs the decode must refuse, and
// the select payloads of hostileSelects, whose last braid it must refuse.
func FuzzArtifactDecode(f *testing.F) {
	cfg := testConfig()
	cfg.Opt = true
	p, err := workloads.ByName("470.lbm").Program(cfg.N)
	if err != nil {
		f.Fatal(err)
	}
	a, err := Run(p, cfg, RunOptions{Store: NewCache()})
	if err != nil {
		f.Fatal(err)
	}
	for i, stage := range codecStages {
		encode, _, _ := Codec(stage)
		b, err := encode(a, stageOutput(a, stage))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), b)
		f.Add(uint8(i), b[:len(b)/2])
		f.Add(uint8(i), b[:len(b)-1])
		f.Add(uint8(i), append(slices.Clone(b), 0))
	}
	for _, h := range hostileRuns(f, a) {
		f.Add(uint8(slices.Index(codecStages, "profile")), h.payload)
	}
	for _, h := range hostileSelects(f, a) {
		f.Add(uint8(slices.Index(codecStages, "select")), h.payload)
	}
	f.Fuzz(func(t *testing.T, stage uint8, data []byte) {
		name := codecStages[int(stage)%len(codecStages)]
		encode, decode, _ := Codec(name)
		out, err := decode(a, data)
		if err != nil {
			return
		}
		if _, err := encode(a, out); err != nil {
			t.Fatalf("%s: decoded artifact does not encode: %v", name, err)
		}
	})
}
