package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"needle/internal/wire"
	"needle/internal/workloads"
)

// codecStages lists every stage with a codec, in pipeline order.
var codecStages = []string{"inline", "opt", "profile", "select", "frame"}

// stageOutput returns the artifact a's run produced for the named stage.
func stageOutput(a *Artifacts, stage string) any {
	switch stage {
	case "inline":
		return a.Inline
	case "opt":
		return a.Opt
	case "profile":
		return a.Profile
	case "select":
		return a.Select
	default:
		return a.Frame
	}
}

// TestDiskStoreFillsAreByteIdentical fills two stores from the same 29
// programs and requires the same files with the same bytes: an artifact
// always encodes to the same payload.
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
	if len(entries) < 4*29 {
		t.Fatalf("only %d artifacts for 29 programs", len(entries))
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

// FuzzArtifactDecode feeds arbitrary bytes straight to each stage's decode,
// with no header or CRC in front: the result must be an error or an
// artifact that encodes again, never a panic. Real payloads of every stage
// seed the corpus.
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
