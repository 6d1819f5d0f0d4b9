package ckpt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/binio"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/prog"
)

// Artifact container: gzip over a record stream. Each record is a
// one-byte tag plus a u32-length-prefixed binio payload, so a reader
// holds exactly one window's state in memory at a time — the fix for
// the unbounded rep.Checkpoints accumulation the in-memory predecessor
// suffered from.
//
// Version 2 encodes each window's architectural checkpoint as a page
// delta over the previous window of the same artifact (the first window
// over none): only the pages whose content changed, plus the total page
// count. A reader rebuilds a window by sharing the previous window's
// pages and overlaying the new ones, so it still holds one footprint.
// A version 1 artifact is refused like any unusable one, and the
// sampler evicts and regenerates it.
const (
	artifactMagic   = "SDIQCKP1"
	artifactVersion = 2

	recWindow  = 1
	recTrailer = 2

	// maxRecordBytes bounds a single record so a corrupt length prefix
	// cannot ask for an absurd allocation. Checkpoints are dominated by
	// the benchmark's mapped pages; the synthetic workloads sit far
	// below this.
	maxRecordBytes = 1 << 30
)

// Window is one sampling window's resume state: everything a detailed
// window needs to run bit-identically to the generating pass —
// architectural checkpoint, warm hierarchy and predictor, the active
// IQ hint, and the window's position in the committed-instruction
// stream.
type Window struct {
	// StartReal is the committed real (non-hint) instruction count at
	// the window start; the resume path derives the window's detailed
	// length from it exactly as the generate path did.
	StartReal int64
	// LastHint is the most recent issue-queue hint at the window start
	// (Core.PresetHint input).
	LastHint int
	// Ckpt is the architectural state at the window start.
	Ckpt emu.Checkpoint
	// Mem and Bp are the functionally-warmed microarchitectural state at
	// the window start. The consumer owns them (they are rebuilt per
	// record on read, cloned on write).
	Mem *cache.Hierarchy
	Bp  *bpred.Predictor
}

// Trailer closes an artifact with the generating run's phase totals, so
// a resumed run reports the same instruction accounting without ever
// touching the functional stream.
type Trailer struct {
	TotalReal       int64
	WarmedReal      int64
	FastForwardReal int64
	Windows         int
}

// Writer streams an artifact to disk; Commit publishes it atomically,
// anything less leaves no trace. Create one via Store.Create.
type Writer struct {
	s     *Store
	key   string
	f     *os.File
	gz    *gzip.Writer
	n     int
	done  bool
	wrote countingWriter
	prev  *emu.Checkpoint // the last appended window's, the next delta's base
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Create starts a new artifact for key. The budget is recorded in the
// header as a sanity cross-check for resumers. A nil store returns
// (nil, nil); callers treat a nil writer as "not recording".
func (s *Store) Create(key string, budget int64) (*Writer, error) {
	if s == nil {
		return nil, nil
	}
	p := s.path(key)
	if p == "" {
		return nil, fmt.Errorf("ckpt: invalid key %q", key)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(s.dir, "gen-*")
	if err != nil {
		return nil, err
	}
	w := &Writer{s: s, key: key, f: f}
	w.wrote = countingWriter{w: f}
	w.gz, _ = gzip.NewWriterLevel(&w.wrote, gzip.BestSpeed)
	var hdr binio.Writer
	hdr.Raw([]byte(artifactMagic))
	hdr.U32(artifactVersion)
	hdr.I64(budget)
	if _, err := w.gz.Write(hdr.Bytes()); err != nil {
		discard(f)
		return nil, err
	}
	return w, nil
}

// record writes one tagged, length-prefixed payload.
func (w *Writer) record(tag uint8, payload []byte) error {
	var hdr binio.Writer
	hdr.U8(tag)
	hdr.U32(uint32(len(payload)))
	if _, err := w.gz.Write(hdr.Bytes()); err != nil {
		return err
	}
	_, err := w.gz.Write(payload)
	return err
}

// Append adds one window's resume state. Its checkpoint is encoded as
// a delta over the previously appended window's.
func (w *Writer) Append(win *Window) error {
	ck, err := win.Ckpt.MarshalDelta(w.prev)
	if err != nil {
		return err
	}
	prev := win.Ckpt
	w.prev = &prev
	mem := win.Mem.MarshalState()
	bp := win.Bp.MarshalState()
	var b binio.Writer
	b.I64(win.StartReal)
	b.I64(int64(win.LastHint))
	b.U32(uint32(len(ck)))
	b.Raw(ck)
	b.U32(uint32(len(mem)))
	b.Raw(mem)
	b.U32(uint32(len(bp)))
	b.Raw(bp)
	w.n++
	return w.record(recWindow, b.Bytes())
}

// Commit writes the trailer, finishes the stream and atomically
// publishes the artifact under its key.
func (w *Writer) Commit(tr Trailer) error {
	if w.done {
		return errors.New("ckpt: writer already finished")
	}
	w.done = true
	tr.Windows = w.n
	var b binio.Writer
	b.I64(tr.TotalReal)
	b.I64(tr.WarmedReal)
	b.I64(tr.FastForwardReal)
	b.U32(uint32(tr.Windows))
	if err := w.record(recTrailer, b.Bytes()); err != nil {
		discard(w.f)
		return err
	}
	if err := w.gz.Close(); err != nil {
		discard(w.f)
		return err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.f.Name())
		return err
	}
	if err := os.Rename(w.f.Name(), w.s.path(w.key)); err != nil {
		os.Remove(w.f.Name())
		return err
	}
	w.s.generated.Add(1)
	w.s.bytesWritten.Add(w.wrote.n)
	return nil
}

// Abort abandons the artifact; the store is left as if Create never
// happened. Safe after Commit (no-op) and on a nil writer.
func (w *Writer) Abort() {
	if w == nil || w.done {
		return
	}
	w.done = true
	discard(w.f)
}

// Reader consumes a published artifact window by window. Create one via
// Store.OpenArtifact.
type Reader struct {
	f       *os.File // nil when reading from memory
	gz      *gzip.Reader
	prog    *prog.Program
	ccfg    cache.HierarchyConfig
	bcfg    bpred.Config
	budget  int64
	trailer *Trailer
	read    int
	prev    *emu.Checkpoint // the last window's, the next delta's base
	payload bytes.Buffer    // record buffer, reused across records
}

// OpenArtifact opens the artifact for key and prepares to deserialize
// its windows against the given program and configuration. A missing
// artifact returns an error wrapping fs.ErrNotExist and counts a store
// miss; an open counts a hit. A nil store always misses.
func (s *Store) OpenArtifact(key string, p *prog.Program, ccfg cache.HierarchyConfig, bcfg bpred.Config) (*Reader, error) {
	if s == nil {
		return nil, os.ErrNotExist
	}
	path := s.path(key)
	if path == "" {
		return nil, os.ErrNotExist
	}
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			s.misses.Add(1)
		}
		return nil, err
	}
	if info, err := f.Stat(); err == nil {
		s.bytesRead.Add(info.Size())
	}
	r, err := newReader(f, p, ccfg, bcfg)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ckpt: %s: %w", key, err)
	}
	r.f = f
	s.hits.Add(1)
	return r, nil
}

// newReader starts reading an artifact from src: it opens the gzip
// stream and checks the header's magic and version.
func newReader(src io.Reader, p *prog.Program, ccfg cache.HierarchyConfig, bcfg bpred.Config) (*Reader, error) {
	gz, err := gzip.NewReader(src)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, len(artifactMagic)+4+8)
	if _, err := io.ReadFull(gz, hdr); err != nil {
		gz.Close()
		return nil, fmt.Errorf("short header: %w", err)
	}
	b := binio.NewReader(hdr)
	if string(b.Raw(len(artifactMagic))) != artifactMagic {
		gz.Close()
		return nil, errors.New("bad artifact magic")
	}
	if v := b.U32(); v != artifactVersion {
		gz.Close()
		return nil, fmt.Errorf("artifact version %d, want %d", v, artifactVersion)
	}
	return &Reader{gz: gz, prog: p, ccfg: ccfg, bcfg: bcfg, budget: b.I64()}, nil
}

// Budget returns the generating run's instruction budget (header field).
func (r *Reader) Budget() int64 { return r.budget }

// Next returns the next window, or io.EOF after the trailer.
func (r *Reader) Next() (*Window, error) {
	if r.trailer != nil {
		return nil, io.EOF
	}
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(r.gz, hdr); err != nil {
		return nil, fmt.Errorf("ckpt: truncated artifact (no trailer): %w", err)
	}
	h := binio.NewReader(hdr)
	tag := h.U8()
	n := int64(h.U32())
	if n > maxRecordBytes {
		return nil, fmt.Errorf("ckpt: implausible record size %d", n)
	}
	// Past the first MiB the buffer grows only as the payload arrives,
	// so a corrupt length costs no more memory than the data present.
	r.payload.Reset()
	r.payload.Grow(int(min(n, 1<<20)))
	if got, err := io.CopyN(&r.payload, r.gz, n); err != nil {
		return nil, fmt.Errorf("ckpt: truncated record (%d of %d bytes): %w", got, n, err)
	}
	b := binio.NewReader(r.payload.Bytes())
	switch tag {
	case recTrailer:
		tr := Trailer{
			TotalReal:       b.I64(),
			WarmedReal:      b.I64(),
			FastForwardReal: b.I64(),
			Windows:         int(b.U32()),
		}
		if err := b.Err(); err != nil {
			return nil, err
		}
		if tr.Windows != r.read {
			return nil, fmt.Errorf("ckpt: trailer records %d windows, artifact held %d", tr.Windows, r.read)
		}
		// The trailer must end the stream; reading to the end also checks
		// the gzip checksum, which catches a damaged or cut-off file.
		if n, err := r.gz.Read(make([]byte, 1)); n != 0 {
			return nil, errors.New("ckpt: data after the artifact trailer")
		} else if err != io.EOF {
			return nil, fmt.Errorf("ckpt: artifact damaged after its trailer: %w", err)
		}
		r.trailer = &tr
		return nil, io.EOF
	case recWindow:
		win := &Window{StartReal: b.I64(), LastHint: int(b.I64())}
		ckBytes := b.Raw(int(b.U32()))
		memBytes := b.Raw(int(b.U32()))
		bpBytes := b.Raw(int(b.U32()))
		if err := b.Err(); err != nil {
			return nil, err
		}
		ck, err := emu.UnmarshalDelta(ckBytes, r.prog, r.prev)
		if err != nil {
			return nil, err
		}
		win.Ckpt = ck
		r.prev = &ck
		mem, err := cache.NewHierarchy(r.ccfg)
		if err != nil {
			return nil, err
		}
		if err := mem.UnmarshalState(memBytes); err != nil {
			return nil, err
		}
		win.Mem = mem
		bp := bpred.New(r.bcfg)
		if err := bp.UnmarshalState(bpBytes); err != nil {
			return nil, err
		}
		win.Bp = bp
		r.read++
		return win, nil
	default:
		return nil, fmt.Errorf("ckpt: unknown record tag %d", tag)
	}
}

// Trailer returns the artifact's trailer; ok is false until Next has
// returned io.EOF.
func (r *Reader) Trailer() (Trailer, bool) {
	if r.trailer == nil {
		return Trailer{}, false
	}
	return *r.trailer, true
}

// Close releases the reader.
func (r *Reader) Close() error {
	r.gz.Close()
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

// checkContainer validates that data parses as an artifact container
// header (gzip, magic and the current version) before WriteRaw
// publishes it.
func checkContainer(data []byte) error {
	r, err := newReader(bytes.NewReader(data), nil, cache.HierarchyConfig{}, bpred.Config{})
	if err != nil {
		return fmt.Errorf("ckpt: upload is not a usable artifact: %w", err)
	}
	return r.Close()
}
