package ckpt

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workload"
)

// Version 2 artifact suite: window checkpoints are page deltas over the
// previous window, rebuilt by sharing. These tests pin that the deltas
// round-trip bit-identically, that they are what makes multi-window
// artifacts small, and that malformed or outdated artifacts are
// refused.

// headerBytes is the decompressed artifact header: magic, version and
// budget.
const headerBytes = len(artifactMagic) + 4 + 8

// inflate returns an artifact's decompressed record stream, header
// included.
func inflate(t testing.TB, data []byte) []byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// deflate compresses a record stream into an artifact.
func deflate(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordOffsets returns the payload offset of every record in a
// decompressed artifact.
func recordOffsets(t testing.TB, raw []byte) []int {
	t.Helper()
	var offs []int
	for off := headerBytes; off < len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off+1:]))
		offs = append(offs, off+5)
		off += 5 + n
	}
	return offs
}

// ckptOffset is where the checkpoint starts in a window record's
// payload: after StartReal, LastHint and the checkpoint's length.
const ckptOffset = 8 + 8 + 4

// windowCkptLen returns the encoded checkpoint length of the window
// record whose payload starts at payload.
func windowCkptLen(raw []byte, payload int) int {
	return int(binary.LittleEndian.Uint32(raw[payload+ckptOffset-4:]))
}

// streamWindows runs a workload's stream with functional warming and
// takes n windows gap instructions apart, under the default cache and
// predictor configuration.
func streamWindows(t testing.TB, p *prog.Program, n, gap int, touch func(i int, e *emu.Emulator)) []Window {
	t.Helper()
	return streamWindowsWith(t, p, cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults(), n, gap, touch)
}

// streamWindowsWith is streamWindows under the given configuration.
// touch, if set, runs before each window is taken.
func streamWindowsWith(t testing.TB, p *prog.Program, ccfg cache.HierarchyConfig, bcfg bpred.Config, n, gap int, touch func(i int, e *emu.Emulator)) []Window {
	t.Helper()
	e, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Restart = true
	h, err := cache.NewHierarchy(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	bp := bpred.New(bcfg)
	var wins []Window
	for i := 0; i < n; i++ {
		for j := 0; j < gap; j++ {
			d, ok := e.Next()
			if !ok {
				t.Fatal("emulator halted early")
			}
			h.WarmFetch(d.PC)
			switch d.Op.Class() {
			case isa.ClassLoad:
				h.WarmLoad(d.Addr)
			case isa.ClassStore:
				h.WarmStore(d.Addr)
			case isa.ClassBranch:
				bp.TrainCond(d.PC, d.Taken)
			}
		}
		if touch != nil {
			touch(i, e)
		}
		wins = append(wins, Window{
			StartReal: int64((i + 1) * gap), LastHint: i % 3,
			Ckpt: e.Checkpoint(), Mem: h.Clone(), Bp: bp.Clone(),
		})
	}
	return wins
}

// writeArtifact publishes wins under key and returns its bytes.
func writeArtifact(t testing.TB, st *Store, key string, wins []Window) []byte {
	t.Helper()
	w, err := st.Create(key, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wins {
		if err := w.Append(&wins[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(Trailer{TotalReal: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	data, err := st.ReadRaw(key)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestArtifactDeltaRoundTrip: a multi-window artifact in which only
// some pages change reads back bit-identically, and each window after
// the first stores only its changed pages.
func TestArtifactDeltaRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	// Windows 1 and 3 write one page each; in between the stream itself
	// may write some or none.
	wins := streamWindows(t, p, 5, 3000, func(i int, e *emu.Emulator) {
		if i%2 == 1 {
			addr := p.DataBase + uint64(i)*4096
			e.Mem().Store(addr, e.Mem().Load(addr)^0x5a5a)
		}
	})
	data := writeArtifact(t, st, testKey, wins)

	r, err := st.OpenArtifact(testKey, p, cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := range wins {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		if got.StartReal != wins[i].StartReal || got.LastHint != wins[i].LastHint || !got.Ckpt.Equal(&wins[i].Ckpt) {
			t.Fatalf("window %d: round trip differs", i)
		}
		want, _ := wins[i].Ckpt.MarshalBinary()
		again, _ := got.Ckpt.MarshalBinary()
		if !bytes.Equal(want, again) {
			t.Fatalf("window %d: rebuilt checkpoint is not bit-identical", i)
		}
		if !bytes.Equal(got.Mem.MarshalState(), wins[i].Mem.MarshalState()) ||
			!bytes.Equal(got.Bp.MarshalState(), wins[i].Bp.MarshalState()) {
			t.Fatalf("window %d: warm state round trip differs", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last window: %v, want io.EOF", err)
	}

	// The first window carries every page; later ones only their
	// changes, so each is far smaller — and one with an explicit store
	// carries at least that page.
	raw := inflate(t, data)
	offs := recordOffsets(t, raw)
	first := windowCkptLen(raw, offs[0])
	const page = 8 + 4096
	for i := 1; i < len(wins); i++ {
		n := windowCkptLen(raw, offs[i])
		if n >= first/2 {
			t.Errorf("window %d: checkpoint delta is %d bytes, the first window's %d", i, n, first)
		}
		if i%2 == 1 && n < page {
			t.Errorf("window %d wrote a page but its delta is only %d bytes", i, n)
		}
	}
}

// TestArtifactDeltaSize: mcf's footprint is 256 pages and its windows
// change almost none of them, so five windows cost less than twice one.
func TestArtifactDeltaSize(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("mcf")
	wins := streamWindows(t, b.Build(42), 5, 20_000, nil)
	one := writeArtifact(t, st, testKey, wins[:1])
	five := writeArtifact(t, st, "abcdabcdabcdabcdabcdabcdabcdabcd", wins)
	t.Logf("mcf artifact: 1 window %d bytes, 5 windows %d bytes", len(one), len(five))
	if len(five) >= 2*len(one) {
		t.Fatalf("5-window artifact is %d bytes, 1-window %d: want under 2x", len(five), len(one))
	}
}

// twoWindowArtifact returns a real 2-window gzip artifact and the
// program it was generated from.
func twoWindowArtifact(t testing.TB) (*prog.Program, []byte) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	return p, writeArtifact(t, st, testKey, streamWindows(t, p, 2, 2000, nil))
}

// TestArtifactPageTotalMismatch: a window whose stated page total
// disagrees with the pages its delta and base rebuild is rejected, on
// the first window (no base) and on a later one.
func TestArtifactPageTotalMismatch(t *testing.T) {
	p, data := twoWindowArtifact(t)
	ccfg, bcfg := cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults()
	for rec := 0; rec < 2; rec++ {
		raw := inflate(t, data)
		// The page total follows the checkpoint's magic.
		at := recordOffsets(t, raw)[rec] + ckptOffset + 4
		total := binary.LittleEndian.Uint32(raw[at:])
		binary.LittleEndian.PutUint32(raw[at:], total+1)
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteRaw(testKey, deflate(t, raw)); err != nil {
			t.Fatal(err) // the container header is intact
		}
		r, err := st.OpenArtifact(testKey, p, ccfg, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		var nerr error
		for i := 0; i <= rec && nerr == nil; i++ {
			_, nerr = r.Next()
			if i < rec && nerr != nil {
				t.Fatalf("record %d: untouched window %d refused: %v", rec, i, nerr)
			}
		}
		r.Close()
		if nerr == nil || !strings.Contains(nerr.Error(), "pages") {
			t.Fatalf("record %d: page total %d (true %d) gave %v, want a page-count error", rec, total+1, total, nerr)
		}
	}
}

// TestV1ArtifactRefused: a version 1 artifact is not an upload the
// store publishes, and an installed one does not open.
func TestV1ArtifactRefused(t *testing.T) {
	p, data := twoWindowArtifact(t)
	raw := inflate(t, data)
	binary.LittleEndian.PutUint32(raw[len(artifactMagic):], 1)
	v1 := deflate(t, raw)

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteRaw(testKey, v1); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 upload: %v, want a version error", err)
	}
	if st.Has(testKey) {
		t.Fatal("v1 upload published")
	}
	path := st.path(testKey)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenArtifact(testKey, p, cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults()); err == nil ||
		!strings.Contains(err.Error(), "version 1") {
		t.Fatalf("OpenArtifact of a v1 artifact: %v, want a version error", err)
	}
}

// TestReaderBoundsRecordLength: a record header claiming nearly the
// size limit over a few bytes of data fails as truncated without
// allocating what it claims.
func TestReaderBoundsRecordLength(t *testing.T) {
	p, data := twoWindowArtifact(t)
	raw := inflate(t, data)[:headerBytes]
	raw = append(raw, recWindow)
	raw = binary.LittleEndian.AppendUint32(raw, maxRecordBytes)
	raw = append(raw, make([]byte, 64)...)
	r, err := newReader(bytes.NewReader(deflate(t, raw)), p, cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
	if r.payload.Cap() > 2<<20 {
		t.Fatalf("a %d-byte claim over 64 bytes grew the record buffer to %d bytes",
			maxRecordBytes, r.payload.Cap())
	}
}
