// Checkpoint serialization for the checkpoint store (internal/ckpt).
// A Checkpoint holds a pointer into its program, so the wire form
// carries only the architectural state; deserialization re-attaches a
// program the caller rebuilt (deterministically, from the same
// benchmark seed) and validates every control position against it. The
// layout is fixed little-endian with sorted page keys, so identical
// states over identical bases serialize to identical bytes — the
// property the store's content addressing and the bit-identity tests
// rely on. The layout is: magic, total page count, registers, control
// position, call stack, instruction count, halt flag, then the pages
// that differ from the base (all of them without one) in key order.
package emu

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/binio"
	"repro/internal/prog"
)

// ckptMagic guards the checkpoint wire layout; bump it on any change.
const ckptMagic uint32 = 0x534b_4332 // "SKC2"

// positionBytes is the encoded size of one control position.
const positionBytes = 3 * 8

func appendPosition(w *binio.Writer, p position) {
	w.I64(int64(p.proc))
	w.I64(int64(p.block))
	w.I64(int64(p.inst))
}

func readPosition(r *binio.Reader) position {
	return position{proc: int(r.I64()), block: int(r.I64()), inst: int(r.I64())}
}

// validPosition reports whether pos addresses an instruction of p.
func validPosition(p *prog.Program, pos position) bool {
	if pos.proc < 0 || pos.proc >= len(p.Procs) {
		return false
	}
	pr := p.Procs[pos.proc]
	if pos.block < 0 || pos.block >= len(pr.Blocks) {
		return false
	}
	return pos.inst >= 0 && pos.inst < len(pr.Blocks[pos.block].Insts)
}

// MarshalBinary serializes the checkpoint's architectural state. The
// program is not included; UnmarshalCheckpoint re-attaches it. It is
// MarshalDelta over no base: every page is encoded.
func (c *Checkpoint) MarshalBinary() ([]byte, error) { return c.MarshalDelta(nil) }

// MarshalDelta serializes the checkpoint's architectural state, encoding
// only the pages whose content differs from base's, plus the total page
// count; a nil base encodes every page. Decoding needs the same base
// (UnmarshalDelta). Memory never unmaps a page, so a base taken earlier
// on the same stream maps a subset of the checkpoint's pages; any other
// base is refused. Pages shared copy-on-write with base compare by
// pointer, so a delta over a recent base costs little more than the
// pages written since.
func (c *Checkpoint) MarshalDelta(base *Checkpoint) ([]byte, error) {
	var basePages map[uint64]page
	if base != nil {
		if base.prog != c.prog {
			return nil, errors.New("emu: delta base is a checkpoint of another program")
		}
		basePages = base.pages
	}
	var changed []uint64
	kept := 0
	for k, pg := range c.pages {
		if bp, ok := basePages[k]; ok {
			kept++
			if bp.words == pg.words || *bp.words == *pg.words {
				continue
			}
		}
		changed = append(changed, k)
	}
	if kept != len(basePages) {
		return nil, fmt.Errorf("emu: delta base maps %d pages the checkpoint does not", len(basePages)-kept)
	}
	slices.Sort(changed)

	var w binio.Writer
	w.U32(ckptMagic)
	w.U32(uint32(len(c.pages)))
	for _, v := range c.iregs {
		w.I64(v)
	}
	for _, v := range c.fregs {
		w.F64(v)
	}
	appendPosition(&w, c.pos)
	w.U32(uint32(len(c.stack)))
	for _, pos := range c.stack {
		appendPosition(&w, pos)
	}
	w.I64(c.seq)
	w.Bool(c.halt)
	w.U32(uint32(len(changed)))
	for _, k := range changed {
		w.U64(k)
		for _, word := range c.pages[k].words {
			w.I64(word)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalCheckpoint deserializes a checkpoint and attaches it to the
// given linked program, validating every control position against it.
// The caller must rebuild the exact program the checkpoint was taken
// from (same benchmark, same seed, same instrumentation); a structurally
// incompatible program is rejected, but a same-shaped different program
// would execute garbage — the store's content key is what rules that
// out. It is UnmarshalDelta over no base.
func UnmarshalCheckpoint(data []byte, p *prog.Program) (Checkpoint, error) {
	return UnmarshalDelta(data, p, nil)
}

// UnmarshalDelta deserializes a checkpoint written by MarshalDelta over
// base (nil for none). The result shares base's unchanged pages and
// owns none, so base stays valid. Allocation is bounded by the data:
// the page total may not exceed base's pages plus the encoded ones, and
// the rebuilt page map must hold exactly that total.
func UnmarshalDelta(data []byte, p *prog.Program, base *Checkpoint) (Checkpoint, error) {
	var c Checkpoint
	if !p.Linked() {
		return c, fmt.Errorf("emu: cannot attach checkpoint to unlinked program %q", p.Name)
	}
	var basePages map[uint64]page
	if base != nil {
		if base.prog != p {
			return c, fmt.Errorf("emu: delta base is not a checkpoint of program %q", p.Name)
		}
		basePages = base.pages
	}
	r := binio.NewReader(data)
	if m := r.U32(); m != ckptMagic {
		return c, fmt.Errorf("emu: bad checkpoint magic %#x", m)
	}
	total := int(r.U32())
	for i := range c.iregs {
		c.iregs[i] = r.I64()
	}
	for i := range c.fregs {
		c.fregs[i] = r.F64()
	}
	c.pos = readPosition(r)
	nstack := int(r.U32())
	if err := r.Err(); err != nil {
		return Checkpoint{}, err
	}
	if nstack > 1<<20 {
		return Checkpoint{}, fmt.Errorf("emu: implausible checkpoint stack depth %d", nstack)
	}
	if r.Remaining() < nstack*positionBytes {
		return Checkpoint{}, binio.ErrCorrupt
	}
	c.stack = make([]position, nstack)
	for i := range c.stack {
		c.stack[i] = readPosition(r)
	}
	c.seq = r.I64()
	c.halt = r.Bool()
	nchanged := int(r.U32())
	if err := r.Err(); err != nil {
		return Checkpoint{}, err
	}
	if nchanged > total || total > len(basePages)+nchanged {
		return Checkpoint{}, fmt.Errorf("emu: checkpoint of %d pages cannot be %d changed pages over a %d-page base",
			total, nchanged, len(basePages))
	}
	if r.Remaining() < nchanged*(8+8*pageWords) {
		return Checkpoint{}, binio.ErrCorrupt
	}
	c.pages = make(map[uint64]page, total)
	maps.Copy(c.pages, basePages)
	var prev uint64
	for i := 0; i < nchanged; i++ {
		key := r.U64()
		if i > 0 && key <= prev {
			// Keys ascend in the canonical encoding; a repeat would also
			// let the page total pass with a page missing.
			return Checkpoint{}, fmt.Errorf("emu: checkpoint page %#x out of order", key)
		}
		prev = key
		words := new([pageWords]int64)
		for j := range words {
			words[j] = r.I64()
		}
		c.pages[key] = page{words: words}
	}
	if err := r.Err(); err != nil {
		return Checkpoint{}, err
	}
	if r.Remaining() != 0 {
		return Checkpoint{}, fmt.Errorf("emu: %d trailing bytes after checkpoint", r.Remaining())
	}
	if len(c.pages) != total {
		return Checkpoint{}, fmt.Errorf("emu: checkpoint header says %d pages, rebuilt state maps %d", total, len(c.pages))
	}
	if !validPosition(p, c.pos) {
		return Checkpoint{}, fmt.Errorf("emu: checkpoint position %+v outside program %q", c.pos, p.Name)
	}
	for _, pos := range c.stack {
		if !validPosition(p, pos) {
			return Checkpoint{}, fmt.Errorf("emu: checkpoint stack entry %+v outside program %q", pos, p.Name)
		}
	}
	c.prog = p
	return c, nil
}

// Equal reports whether two checkpoints hold identical architectural
// state for the same program (test helper for the serialization suite).
func (c *Checkpoint) Equal(o *Checkpoint) bool {
	if c.prog != o.prog || c.iregs != o.iregs || c.fregs != o.fregs ||
		c.pos != o.pos || c.seq != o.seq || c.halt != o.halt ||
		len(c.stack) != len(o.stack) || len(c.pages) != len(o.pages) {
		return false
	}
	for i := range c.stack {
		if c.stack[i] != o.stack[i] {
			return false
		}
	}
	for k, pg := range c.pages {
		opg, ok := o.pages[k]
		if !ok || *pg.words != *opg.words {
			return false
		}
	}
	return true
}
