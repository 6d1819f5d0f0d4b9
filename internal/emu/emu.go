// Package emu is the functional emulator: the SimpleScalar "functional
// core" equivalent. It executes a linked program with concrete register
// and memory state and yields the committed dynamic instruction stream the
// timing simulator consumes. Branch outcomes and memory addresses are
// therefore real, not modelled.
package emu

import (
	"fmt"
	"maps"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// pageBits gives 4KiB pages of 512 words.
const (
	pageBits  = 12
	pageWords = 1 << (pageBits - 3)
)

// page maps one 4KiB page of words. The memory may write the words in
// place only while owner is its current epoch; a page mapped under any
// other epoch is shared. A page decoded from a serialized checkpoint has
// no owner.
type page struct {
	words *[pageWords]int64
	owner *epoch
}

// epoch is one period of page ownership of a Memory; its address is its
// identity. Pages reference the epoch they were written under, which
// keeps that address from being reused while any of them is mapped.
type epoch struct{ _ byte }

// Memory is a sparse, paged, word-granular memory. Addresses are byte
// addresses rounded down to 8-byte alignment.
//
// Pages are copy-on-write. A page is owned when its owner is the
// memory's epoch and shared otherwise. A shared page may also be mapped
// by checkpoints and by other memories restored from them, so it is
// never written: the first Store to it copies it into a fresh owned
// page. Emulator.Checkpoint hands the memory's pages to the checkpoint
// and moves the memory to a new epoch, which marks every page shared in
// O(1); Restore maps a checkpoint's pages the same way. A fork therefore
// costs one map entry per page plus a copy of each page it writes, and
// shared pages are read-only, so any number of emulators can run over
// one checkpoint's pages concurrently.
type Memory struct {
	pages map[uint64]page
	epoch *epoch
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: map[uint64]page{}, epoch: new(epoch)}
}

// Load reads the 8-byte word containing addr; unmapped memory reads 0.
func (m *Memory) Load(addr uint64) int64 {
	pg, ok := m.pages[addr>>pageBits]
	if !ok {
		return 0
	}
	return pg.words[(addr>>3)&(pageWords-1)]
}

// Store writes the 8-byte word containing addr, first copying the page
// if it is shared.
func (m *Memory) Store(addr uint64, v int64) {
	key := addr >> pageBits
	pg := m.pages[key]
	if pg.owner != m.epoch {
		words := new([pageWords]int64)
		if pg.words != nil {
			*words = *pg.words
		}
		pg = page{words: words, owner: m.epoch}
		m.pages[key] = pg
	}
	pg.words[(addr>>3)&(pageWords-1)] = v
}

// Pages returns the number of mapped pages (for tests).
func (m *Memory) Pages() int { return len(m.pages) }

// mapShared maps a copy of pages, owning none of them, in place of the
// memory's contents.
func (m *Memory) mapShared(pages map[uint64]page) {
	m.pages = maps.Clone(pages)
	m.epoch = new(epoch)
}

type position struct {
	proc, block, inst int
}

// Emulator executes one program.
type Emulator struct {
	prog  *prog.Program
	iregs [isa.IntRegs]int64
	fregs [isa.FPRegs]float64
	mem   *Memory
	pos   position
	stack []position
	seq   int64
	halt  bool

	// Decoded-dispatch state (see decode.go). While useDec is true the
	// control position lives in flat/fstack and pos/stack are stale;
	// Checkpoint, Restore and SetDecode convert between the two forms,
	// so checkpoints always use the structural (wire) representation.
	dec    *decProgram
	flat   int32
	fstack []int32
	useDec bool

	// Restart controls behaviour at program completion: when true the
	// architectural state is preserved but control returns to the entry
	// procedure, so short programs can fill any instruction budget (the
	// paper runs fixed 100M-instruction windows of much longer programs).
	Restart bool
}

// New returns an emulator over a linked program with the data segment
// loaded.
func New(p *prog.Program) (*Emulator, error) {
	e, err := newBare(p)
	if err != nil {
		return nil, err
	}
	for i, w := range p.Data {
		e.mem.Store(p.DataBase+uint64(8*i), w)
	}
	return e, nil
}

// newBare returns an emulator at the entry of a linked program with
// empty memory.
func newBare(p *prog.Program) (*Emulator, error) {
	if !p.Linked() {
		return nil, fmt.Errorf("program %q is not linked", p.Name)
	}
	e := &Emulator{prog: p, mem: NewMemory(), pos: position{p.Entry, 0, 0}}
	e.SetDecode(true)
	return e, nil
}

// SetDecode switches between the decoded-dispatch fast path (the
// default) and the reference interpreter. Architectural state and the
// dynamic stream are unaffected — the differential tests prove the two
// paths bit-identical — so this is a performance/verification toggle,
// usable mid-stream.
func (e *Emulator) SetDecode(on bool) {
	if on == e.useDec {
		return
	}
	if on {
		e.dec = decodeOf(e.prog)
		e.flat = e.dec.flatOf(e.prog, e.pos)
		e.fstack = e.fstack[:0]
		for _, pos := range e.stack {
			e.fstack = append(e.fstack, e.dec.flatOf(e.prog, pos))
		}
	} else {
		e.pos = e.dec.posOf[e.flat]
		e.stack = e.stack[:0]
		for _, f := range e.fstack {
			e.stack = append(e.stack, e.dec.posOf[f])
		}
	}
	e.useDec = on
}

// MustNew is New that panics on error.
func MustNew(p *prog.Program) *Emulator {
	e, err := New(p)
	if err != nil {
		panic(err)
	}
	return e
}

// Mem exposes the memory (for tests and initialisation).
func (e *Emulator) Mem() *Memory { return e.mem }

// IntReg returns the value of integer register i.
func (e *Emulator) IntReg(i int) int64 { return e.iregs[i] }

// Halted reports whether the program has finished.
func (e *Emulator) Halted() bool { return e.halt }

// Checkpoint is a full architectural snapshot of an emulator: registers,
// memory, control position, call stack and the committed-instruction
// count. Restoring it resumes execution mid-stream with the exact same
// remaining dynamic instruction sequence (Seq continuity included).
// Microarchitectural state (caches, predictor) is deliberately not part
// of a checkpoint: a restored stream reproduces a sample window's
// instructions exactly, but re-measuring its timing requires re-warming
// that state first (e.g. by restoring an earlier checkpoint and
// functionally warming forward).
type Checkpoint struct {
	prog  *prog.Program
	iregs [isa.IntRegs]int64
	fregs [isa.FPRegs]float64
	pages map[uint64]page // shared: never written
	pos   position
	stack []position
	seq   int64
	halt  bool
}

// Seq returns the number of instructions executed when the checkpoint was
// taken; the next instruction the restored emulator yields carries it.
func (c *Checkpoint) Seq() int64 { return c.seq }

// Checkpoint snapshots the emulator's architectural state. The snapshot
// is independent of the emulator: later execution does not mutate it.
// Memory is not copied: the checkpoint shares the emulator's pages and
// the emulator copies each page on its next store to it.
func (e *Emulator) Checkpoint() Checkpoint {
	pos, stack := e.pos, append([]position(nil), e.stack...)
	if e.useDec {
		// Checkpoints are always structural positions (the serialized
		// wire format), independent of the dispatch mode in use.
		pos = e.dec.posOf[e.flat]
		stack = stack[:0]
		for _, f := range e.fstack {
			stack = append(stack, e.dec.posOf[f])
		}
	}
	// The checkpoint takes the page map; the emulator goes on over a
	// copy of it in which every page is shared.
	pages := e.mem.pages
	e.mem.mapShared(pages)
	return Checkpoint{
		prog:  e.prog,
		iregs: e.iregs,
		fregs: e.fregs,
		pages: pages,
		pos:   pos,
		stack: stack,
		seq:   e.seq,
		halt:  e.halt,
	}
}

// Restore rewinds the emulator to a checkpoint taken from the same
// program. The emulator shares the checkpoint's pages copy-on-write, so
// the checkpoint stays valid and can be restored again.
func (e *Emulator) Restore(c Checkpoint) error {
	if c.prog != e.prog {
		return fmt.Errorf("emu: checkpoint is for program %q, emulator runs %q",
			c.prog.Name, e.prog.Name)
	}
	e.iregs = c.iregs
	e.fregs = c.fregs
	e.mem.mapShared(c.pages)
	e.pos = c.pos
	e.stack = append(e.stack[:0:0], c.stack...)
	if e.useDec {
		e.flat = e.dec.flatOf(e.prog, c.pos)
		e.fstack = e.fstack[:0]
		for _, pos := range c.stack {
			e.fstack = append(e.fstack, e.dec.flatOf(e.prog, pos))
		}
	}
	e.seq = c.seq
	e.halt = c.halt
	return nil
}

// NewFromCheckpoint builds a fresh emulator resuming at a checkpoint of
// the given linked program. The data segment is not loaded: the
// checkpoint's pages replace it.
func NewFromCheckpoint(p *prog.Program, c Checkpoint) (*Emulator, error) {
	e, err := newBare(p)
	if err != nil {
		return nil, err
	}
	if err := e.Restore(c); err != nil {
		return nil, err
	}
	return e, nil
}

// Seq returns the number of instructions executed so far.
func (e *Emulator) Seq() int64 { return e.seq }

func (e *Emulator) cur() *prog.Inst {
	p := e.prog.Procs[e.pos.proc]
	return &p.Blocks[e.pos.block].Insts[e.pos.inst]
}

func (e *Emulator) pcAt(pos position) int {
	return e.prog.Procs[pos.proc].Blocks[pos.block].Insts[pos.inst].PC
}

// advance moves to the next sequential instruction within the procedure.
func (e *Emulator) advance() position {
	p := e.prog.Procs[e.pos.proc]
	n := e.pos
	n.inst++
	if n.inst >= len(p.Blocks[n.block].Insts) {
		n.block++
		n.inst = 0
	}
	return n
}

func (e *Emulator) readInt(r isa.Reg) int64 {
	if !r.IsInt() {
		return 0
	}
	return e.iregs[r]
}

func (e *Emulator) writeInt(r isa.Reg, v int64) {
	if r.IsInt() && r != isa.RZero {
		e.iregs[r] = v
	}
}

func (e *Emulator) readFP(r isa.Reg) float64 {
	if !r.IsFP() {
		return 0
	}
	return e.fregs[int(r)-isa.IntRegs]
}

func (e *Emulator) writeFP(r isa.Reg, v float64) {
	if r.IsFP() {
		e.fregs[int(r)-isa.IntRegs] = v
	}
}

// Next implements trace.Stream: it executes one instruction and returns
// its dynamic record. The decoded dispatch body lives directly in Next
// (not behind a call) so the dominant path pays no extra frame for the
// record copy; the reference interpreter is one call away.
func (e *Emulator) Next() (trace.DynInst, bool) {
	if e.useDec {
		if e.halt {
			return trace.DynInst{}, false
		}
		en := &e.dec.entries[e.flat]
		d := en.d
		d.Seq = e.seq
		e.seq++
		next := e.flat + 1
		switch d.Op {
		case isa.Nop, isa.HintNop:
			// nothing
		case isa.Li:
			e.writeInt(d.Dst, en.imm)
		case isa.Mov:
			e.writeInt(d.Dst, e.readInt(d.Src1))
		case isa.Add:
			e.writeInt(d.Dst, e.readInt(d.Src1)+e.readInt(d.Src2))
		case isa.Sub:
			e.writeInt(d.Dst, e.readInt(d.Src1)-e.readInt(d.Src2))
		case isa.And:
			e.writeInt(d.Dst, e.readInt(d.Src1)&e.readInt(d.Src2))
		case isa.Or:
			e.writeInt(d.Dst, e.readInt(d.Src1)|e.readInt(d.Src2))
		case isa.Xor:
			e.writeInt(d.Dst, e.readInt(d.Src1)^e.readInt(d.Src2))
		case isa.Shl:
			e.writeInt(d.Dst, e.readInt(d.Src1)<<(uint64(e.readInt(d.Src2))&63))
		case isa.Shr:
			e.writeInt(d.Dst, int64(uint64(e.readInt(d.Src1))>>(uint64(e.readInt(d.Src2))&63)))
		case isa.Slt:
			e.writeInt(d.Dst, boolToInt(e.readInt(d.Src1) < e.readInt(d.Src2)))
		case isa.Addi:
			e.writeInt(d.Dst, e.readInt(d.Src1)+en.imm)
		case isa.Andi:
			e.writeInt(d.Dst, e.readInt(d.Src1)&en.imm)
		case isa.Xori:
			e.writeInt(d.Dst, e.readInt(d.Src1)^en.imm)
		case isa.Shli:
			e.writeInt(d.Dst, e.readInt(d.Src1)<<(uint64(en.imm)&63))
		case isa.Shri:
			e.writeInt(d.Dst, int64(uint64(e.readInt(d.Src1))>>(uint64(en.imm)&63)))
		case isa.Slti:
			e.writeInt(d.Dst, boolToInt(e.readInt(d.Src1) < en.imm))
		case isa.Mul:
			e.writeInt(d.Dst, e.readInt(d.Src1)*e.readInt(d.Src2))
		case isa.Muli:
			e.writeInt(d.Dst, e.readInt(d.Src1)*en.imm)
		case isa.Div:
			e.writeInt(d.Dst, safeDiv(e.readInt(d.Src1), e.readInt(d.Src2)))
		case isa.Rem:
			e.writeInt(d.Dst, safeRem(e.readInt(d.Src1), e.readInt(d.Src2)))
		case isa.FAdd:
			e.writeFP(d.Dst, e.readFP(d.Src1)+e.readFP(d.Src2))
		case isa.FSub:
			e.writeFP(d.Dst, e.readFP(d.Src1)-e.readFP(d.Src2))
		case isa.FMul:
			e.writeFP(d.Dst, e.readFP(d.Src1)*e.readFP(d.Src2))
		case isa.FDiv:
			v := e.readFP(d.Src2)
			if v == 0 {
				v = 1
			}
			e.writeFP(d.Dst, e.readFP(d.Src1)/v)
		case isa.FMov:
			e.writeFP(d.Dst, e.readFP(d.Src1))
		case isa.ItoF:
			e.writeFP(d.Dst, float64(e.readInt(d.Src1)))
		case isa.FtoI:
			e.writeInt(d.Dst, int64(e.readFP(d.Src1)))
		case isa.Ld:
			d.Addr = uint64(e.readInt(d.Src1)+en.imm) &^ 7
			e.writeInt(d.Dst, e.mem.Load(d.Addr))
		case isa.LdF:
			d.Addr = uint64(e.readInt(d.Src1)+en.imm) &^ 7
			e.writeFP(d.Dst, float64(e.mem.Load(d.Addr)))
		case isa.St:
			d.Addr = uint64(e.readInt(d.Src1)+en.imm) &^ 7
			e.mem.Store(d.Addr, e.readInt(d.Src2))
		case isa.StF:
			d.Addr = uint64(e.readInt(d.Src1)+en.imm) &^ 7
			e.mem.Store(d.Addr, int64(e.readFP(d.Src2)))
		case isa.Beq:
			d.Taken = e.readInt(d.Src1) == e.readInt(d.Src2)
			if d.Taken {
				next = en.tgt
			}
		case isa.Bne:
			d.Taken = e.readInt(d.Src1) != e.readInt(d.Src2)
			if d.Taken {
				next = en.tgt
			}
		case isa.Blt:
			d.Taken = e.readInt(d.Src1) < e.readInt(d.Src2)
			if d.Taken {
				next = en.tgt
			}
		case isa.Bge:
			d.Taken = e.readInt(d.Src1) >= e.readInt(d.Src2)
			if d.Taken {
				next = en.tgt
			}
		case isa.Jmp:
			d.Taken = true
			next = en.tgt
		case isa.Call, isa.CallLib:
			d.Taken = true
			e.fstack = append(e.fstack, next)
			next = en.tgt
		case isa.Ret:
			d.Taken = true
			if len(e.fstack) == 0 {
				return e.finishDec(d)
			}
			next = e.fstack[len(e.fstack)-1]
			e.fstack = e.fstack[:len(e.fstack)-1]
		case isa.Halt:
			return e.finishDec(d)
		default:
			panic("emu: unhandled opcode in decoded dispatch")
		}
		e.flat = next
		d.NextPC = int(next) * isa.InstBytes
		return d, true
	}
	return e.nextRef()
}

// nextRef is the reference interpreter: structural positions, per-
// instruction decode. Kept verbatim as the oracle the decoded path is
// differentially tested against.
func (e *Emulator) nextRef() (trace.DynInst, bool) {
	if e.halt {
		return trace.DynInst{}, false
	}
	in := e.cur()
	d := trace.DynInst{
		Seq:  e.seq,
		PC:   in.PC,
		Op:   in.Op,
		Dst:  in.Dst,
		Src1: in.Src1,
		Src2: in.Src2,
		Hint: in.Hint,
	}
	if in.Op == isa.HintNop {
		d.Hint = int(in.Imm)
	}
	e.seq++

	next := e.advance()
	switch in.Op {
	case isa.Nop, isa.HintNop:
		// nothing
	case isa.Li:
		e.writeInt(in.Dst, in.Imm)
	case isa.Mov:
		e.writeInt(in.Dst, e.readInt(in.Src1))
	case isa.Add:
		e.writeInt(in.Dst, e.readInt(in.Src1)+e.readInt(in.Src2))
	case isa.Sub:
		e.writeInt(in.Dst, e.readInt(in.Src1)-e.readInt(in.Src2))
	case isa.And:
		e.writeInt(in.Dst, e.readInt(in.Src1)&e.readInt(in.Src2))
	case isa.Or:
		e.writeInt(in.Dst, e.readInt(in.Src1)|e.readInt(in.Src2))
	case isa.Xor:
		e.writeInt(in.Dst, e.readInt(in.Src1)^e.readInt(in.Src2))
	case isa.Shl:
		e.writeInt(in.Dst, e.readInt(in.Src1)<<(uint64(e.readInt(in.Src2))&63))
	case isa.Shr:
		e.writeInt(in.Dst, int64(uint64(e.readInt(in.Src1))>>(uint64(e.readInt(in.Src2))&63)))
	case isa.Slt:
		e.writeInt(in.Dst, boolToInt(e.readInt(in.Src1) < e.readInt(in.Src2)))
	case isa.Addi:
		e.writeInt(in.Dst, e.readInt(in.Src1)+in.Imm)
	case isa.Andi:
		e.writeInt(in.Dst, e.readInt(in.Src1)&in.Imm)
	case isa.Xori:
		e.writeInt(in.Dst, e.readInt(in.Src1)^in.Imm)
	case isa.Shli:
		e.writeInt(in.Dst, e.readInt(in.Src1)<<(uint64(in.Imm)&63))
	case isa.Shri:
		e.writeInt(in.Dst, int64(uint64(e.readInt(in.Src1))>>(uint64(in.Imm)&63)))
	case isa.Slti:
		e.writeInt(in.Dst, boolToInt(e.readInt(in.Src1) < in.Imm))
	case isa.Mul:
		e.writeInt(in.Dst, e.readInt(in.Src1)*e.readInt(in.Src2))
	case isa.Muli:
		e.writeInt(in.Dst, e.readInt(in.Src1)*in.Imm)
	case isa.Div:
		e.writeInt(in.Dst, safeDiv(e.readInt(in.Src1), e.readInt(in.Src2)))
	case isa.Rem:
		e.writeInt(in.Dst, safeRem(e.readInt(in.Src1), e.readInt(in.Src2)))
	case isa.FAdd:
		e.writeFP(in.Dst, e.readFP(in.Src1)+e.readFP(in.Src2))
	case isa.FSub:
		e.writeFP(in.Dst, e.readFP(in.Src1)-e.readFP(in.Src2))
	case isa.FMul:
		e.writeFP(in.Dst, e.readFP(in.Src1)*e.readFP(in.Src2))
	case isa.FDiv:
		v := e.readFP(in.Src2)
		if v == 0 {
			v = 1
		}
		e.writeFP(in.Dst, e.readFP(in.Src1)/v)
	case isa.FMov:
		e.writeFP(in.Dst, e.readFP(in.Src1))
	case isa.ItoF:
		e.writeFP(in.Dst, float64(e.readInt(in.Src1)))
	case isa.FtoI:
		e.writeInt(in.Dst, int64(e.readFP(in.Src1)))
	case isa.Ld:
		d.Addr = uint64(e.readInt(in.Src1)+in.Imm) &^ 7
		e.writeInt(in.Dst, e.mem.Load(d.Addr))
	case isa.LdF:
		d.Addr = uint64(e.readInt(in.Src1)+in.Imm) &^ 7
		e.writeFP(in.Dst, float64(e.mem.Load(d.Addr)))
	case isa.St:
		d.Addr = uint64(e.readInt(in.Src1)+in.Imm) &^ 7
		e.mem.Store(d.Addr, e.readInt(in.Src2))
	case isa.StF:
		d.Addr = uint64(e.readInt(in.Src1)+in.Imm) &^ 7
		e.mem.Store(d.Addr, int64(e.readFP(in.Src2)))
	case isa.Beq:
		d.Taken = e.readInt(in.Src1) == e.readInt(in.Src2)
		if d.Taken {
			next = position{e.pos.proc, in.Target, 0}
		}
	case isa.Bne:
		d.Taken = e.readInt(in.Src1) != e.readInt(in.Src2)
		if d.Taken {
			next = position{e.pos.proc, in.Target, 0}
		}
	case isa.Blt:
		d.Taken = e.readInt(in.Src1) < e.readInt(in.Src2)
		if d.Taken {
			next = position{e.pos.proc, in.Target, 0}
		}
	case isa.Bge:
		d.Taken = e.readInt(in.Src1) >= e.readInt(in.Src2)
		if d.Taken {
			next = position{e.pos.proc, in.Target, 0}
		}
	case isa.Jmp:
		d.Taken = true
		next = position{e.pos.proc, in.Target, 0}
	case isa.Call, isa.CallLib:
		d.Taken = true
		e.stack = append(e.stack, next)
		next = position{in.Target, 0, 0}
	case isa.Ret:
		d.Taken = true
		if len(e.stack) == 0 {
			return e.finish(d)
		}
		next = e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
	case isa.Halt:
		return e.finish(d)
	default:
		panic(fmt.Sprintf("emu: unhandled opcode %v", in.Op))
	}

	e.pos = next
	d.NextPC = e.pcAt(next)
	return d, true
}

// finish handles program completion: either halt or restart at the entry.
func (e *Emulator) finish(d trace.DynInst) (trace.DynInst, bool) {
	if e.Restart {
		e.pos = position{e.prog.Entry, 0, 0}
		e.stack = e.stack[:0]
		d.Taken = true
		d.NextPC = e.pcAt(e.pos)
		return d, true
	}
	e.halt = true
	d.NextPC = d.PC + isa.InstBytes
	return d, true
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == -1<<63 && b == -1 {
		return a
	}
	return a / b
}

func safeRem(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == -1<<63 && b == -1 {
		return 0
	}
	return a % b
}

// Run executes up to budget instructions and returns the trace; a
// convenience for tests.
func Run(p *prog.Program, budget int64) ([]trace.DynInst, error) {
	e, err := New(p)
	if err != nil {
		return nil, err
	}
	var out []trace.DynInst
	for int64(len(out)) < budget {
		d, ok := e.Next()
		if !ok {
			break
		}
		out = append(out, d)
	}
	return out, nil
}
