package ckpt

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/prog"
)

// The artifact reader is a trust boundary: artifacts arrive from disk
// and from workers over HTTP. FuzzArtifactReader feeds it arbitrary
// bytes; whatever the input, opening it and reading windows until an
// error must not panic, and what the reader allocates is bounded by the
// data actually present (record lengths grow a buffer as bytes arrive,
// and page and stack counts are checked against the bytes left before
// anything is allocated for them).
//
// The seed corpus in testdata/fuzz/FuzzArtifactReader is the artifact
// fuzzArtifact writes and truncations of it, both of the compressed
// file and of its decompressed record stream. When the artifact format
// changes, TestArtifactReaderSeedCorpus fails; delete the directory and
// run that test once to rewrite the corpus.

// fuzzProgram is a one-page program that writes its data table in a
// loop, so successive windows differ in registers and memory.
func fuzzProgram() *prog.Program {
	b := prog.NewBuilder("fuzz")
	base := b.AppendData(make([]int64, 16)...)
	b.Proc("main").Entry().
		Li(isa.R(1), int64(base)).
		Li(isa.R(2), 0).
		Label("loop").
		Andi(isa.R(3), isa.R(2), 15*8).
		Add(isa.R(4), isa.R(1), isa.R(3)).
		Ld(isa.R(5), isa.R(4), 0).
		Add(isa.R(5), isa.R(5), isa.R(2)).
		St(isa.R(5), isa.R(4), 0).
		Addi(isa.R(2), isa.R(2), 8).
		Jmp("loop")
	return b.MustBuild()
}

// fuzzConfigs are the smallest cache and predictor geometries, so the
// seed artifact stays a few hundred bytes.
func fuzzConfigs() (cache.HierarchyConfig, bpred.Config) {
	ccfg := cache.HierarchyConfig{
		IL1: cache.Config{Name: "il1", SizeBytes: 128, LineBytes: 32, Assoc: 2, HitCycles: 1},
		DL1: cache.Config{Name: "dl1", SizeBytes: 128, LineBytes: 32, Assoc: 2, HitCycles: 2},
		L2:  cache.Config{Name: "l2", SizeBytes: 256, LineBytes: 64, Assoc: 2, HitCycles: 10},
	}.WithDefaults()
	bcfg := bpred.Config{
		GshareEntries: 8, BimodalEntries: 8, SelectorEntries: 8,
		HistoryBits: 3, BTBEntries: 4, BTBAssoc: 2, RASEntries: 2,
	}.WithDefaults()
	return ccfg, bcfg
}

// fuzzArtifact writes the 2-window seed artifact for fuzzProgram.
func fuzzArtifact(t testing.TB, p *prog.Program) []byte {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ccfg, bcfg := fuzzConfigs()
	return writeArtifact(t, st, testKey, streamWindowsWith(t, p, ccfg, bcfg, 2, 300, nil))
}

// seedCorpus returns the seed artifact and its truncations.
func seedCorpus(t testing.TB, p *prog.Program) [][]byte {
	t.Helper()
	full := fuzzArtifact(t, p)
	seeds := [][]byte{full}
	for _, n := range []int{10, len(full) / 2, len(full) - 4} {
		seeds = append(seeds, full[:n])
	}
	raw := inflate(t, full)
	offs := recordOffsets(t, raw)
	for _, n := range []int{headerBytes - 3, offs[0] + 12, offs[1] - 5, offs[2] - 2} {
		seeds = append(seeds, deflate(t, raw[:n]))
	}
	return seeds
}

func FuzzArtifactReader(f *testing.F) {
	p := fuzzProgram()
	ccfg, bcfg := fuzzConfigs()
	for _, seed := range seedCorpus(f, p) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := newReader(bytes.NewReader(data), p, ccfg, bcfg)
		if err != nil {
			return
		}
		defer r.Close()
		for {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}

// TestArtifactReaderSeedCorpus: the committed seed corpus is current —
// its files are exactly the seed artifact and its truncations — and the
// reader reads the full artifact to its trailer and refuses every
// truncation. With the corpus directory absent it writes the corpus and
// fails, so the rewrite gets committed.
func TestArtifactReaderSeedCorpus(t *testing.T) {
	p := fuzzProgram()
	ccfg, bcfg := fuzzConfigs()
	dir := filepath.Join("testdata", "fuzz", "FuzzArtifactReader")
	seeds := seedCorpus(t, p)
	name := func(i int) string { return filepath.Join(dir, "seed-"+strconv.Itoa(i)) }
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			if err := os.WriteFile(name(i), []byte(corpusEntry(seed)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Fatalf("wrote the seed corpus to %s; commit it", dir)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != len(seeds) {
		t.Errorf("corpus holds %d files, want %d", len(files), len(seeds))
	}
	for i, seed := range seeds {
		file, err := os.ReadFile(name(i))
		if err != nil {
			t.Fatal(err)
		}
		if string(file) != corpusEntry(seed) {
			t.Fatalf("%s is stale: delete %s and rerun this test to rewrite the corpus", name(i), dir)
		}
		windows := 0
		r, err := newReader(bytes.NewReader(seed), p, ccfg, bcfg)
		if err == nil {
			for err == nil {
				if _, err = r.Next(); err == nil {
					windows++
				}
			}
			r.Close()
		}
		complete := err == io.EOF && windows == 2
		if complete != (i == 0) {
			t.Errorf("seed %d: read %d windows, ended with %v", i, windows, err)
		}
	}
}

// corpusEntry renders one []byte input in go's fuzz corpus file format.
func corpusEntry(data []byte) string {
	return "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
}
