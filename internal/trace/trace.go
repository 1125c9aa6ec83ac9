// Package trace functionally executes an assembled program and yields the
// dynamic instruction stream, including the actual operand and result
// values every instruction observed.
//
// The timing simulator in internal/core is trace-driven: it consumes
// DynInst records in program order. Because each record carries the real
// source-operand values, the stride value predictor in internal/vpred can
// be trained and evaluated against genuine value streams, exactly as the
// paper's modified SimpleScalar did with its functional core.
package trace

import (
	"fmt"
	"math"

	"clustervp/internal/isa"
	"clustervp/internal/program"
)

// MaxSrc is the maximum number of register sources per instruction.
const MaxSrc = 2

// DynInst is one dynamic (executed) instruction.
type DynInst struct {
	// Seq numbers committed program instructions from 0.
	Seq uint64
	// PC is the static instruction index; the byte address for the
	// instruction cache is PC*4.
	PC int
	// Inst is the static instruction.
	Inst isa.Inst
	// NextPC is the PC of the dynamically following instruction.
	NextPC int
	// Taken is true for branches that were taken.
	Taken bool
	// SrcVal holds the raw 64-bit values of the register sources, in
	// operand order (FP values as IEEE-754 bits). Only the first
	// len(Inst.Sources()) entries are meaningful.
	SrcVal [MaxSrc]uint64
	// DstVal is the raw result value when the instruction writes a
	// register.
	DstVal uint64
	// Addr is the effective byte address for loads and stores.
	Addr uint64
}

// Info returns the static opcode description.
func (d *DynInst) Info() isa.Info { return isa.InfoFor(d.Inst.Op) }

// Executor runs a Program functionally and produces DynInst records one
// at a time.
type Executor struct {
	prog *program.Program
	mem  *Memory
	regs regFile
	pc   int
	seq  uint64
	done bool
	err  error
}

// MemSize is the size of the data address space (16 MiB): addresses
// wrap modulo MemSize, and an 8-byte access is clamped to end at it.
// It bounds the memory image, but is not what a Memory allocates.
const MemSize = 1 << 24

// minMemImage is the smallest image a Memory allocates.
const minMemImage = 64 << 10

// Memory is a flat byte-addressable data memory. Its image covers the
// bottom of the address space only as far as accesses have reached:
// it starts at the program's data image, rounded up to a power of two,
// and doubles (up to MemSize) when an access reaches past its end.
// Bytes never written read as zero either way.
type Memory struct {
	bytes []byte
}

// NewMemory builds a Memory initialized from the program's data image.
func NewMemory(data []byte) *Memory {
	n := minMemImage
	for n < len(data) && n < MemSize {
		n *= 2
	}
	m := &Memory{bytes: make([]byte, n)}
	copy(m.bytes, data)
	return m
}

// word returns the 8-byte span an access at addr touches: the address
// wrapped into the address space and clamped to end at MemSize, with
// the image grown to cover it.
func (m *Memory) word(addr uint64) []byte {
	a := addr & (MemSize - 1)
	if a+8 > MemSize {
		a = MemSize - 8
	}
	if a+8 > uint64(len(m.bytes)) {
		m.grow(a + 8)
	}
	return m.bytes[a : a+8]
}

// grow doubles the image until it holds end bytes.
func (m *Memory) grow(end uint64) {
	n := uint64(len(m.bytes))
	for n < end {
		n *= 2
	}
	b := make([]byte, n)
	copy(b, m.bytes)
	m.bytes = b
}

// Load64 reads the 64-bit little-endian word at addr.
func (m *Memory) Load64(addr uint64) uint64 {
	b := m.word(addr)
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Store64 writes the 64-bit little-endian word v at addr.
func (m *Memory) Store64(addr, v uint64) {
	b := m.word(addr)
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

// Load8 reads the byte at addr.
func (m *Memory) Load8(addr uint64) byte { return *m.byteAt(addr) }

// Store8 writes the byte v at addr.
func (m *Memory) Store8(addr uint64, v byte) { *m.byteAt(addr) = v }

// byteAt returns the image byte at addr, wrapped into the address
// space, growing the image to cover it.
func (m *Memory) byteAt(addr uint64) *byte {
	a := addr & (MemSize - 1)
	if a >= uint64(len(m.bytes)) {
		m.grow(a + 1)
	}
	return &m.bytes[a]
}

// NewExecutor prepares a functional executor for prog.
func NewExecutor(prog *program.Program) *Executor {
	return &Executor{prog: prog, mem: NewMemory(prog.Data), pc: prog.Entry}
}

// Memory exposes the data memory (for tests and for result extraction by
// workload self-checks).
func (e *Executor) Memory() *Memory { return e.mem }

// Reg returns the current architectural value of r.
func (e *Executor) Reg(r isa.RegID) uint64 {
	if r == isa.R0 {
		return 0
	}
	return e.regs[r]
}

// Done reports whether the program has halted.
func (e *Executor) Done() bool { return e.done }

// Err returns the first execution error (e.g. runaway program), if any.
func (e *Executor) Err() error { return e.err }

// ErrRunaway is wrapped by errors returned when a program exceeds the
// instruction budget without halting.
var ErrRunaway = fmt.Errorf("trace: program exceeded instruction budget")

// Next executes one instruction and fills d with its dynamic record. It
// returns false when the program has halted (the HALT itself is not
// reported) or an execution error occurred.
func (e *Executor) Next(d *DynInst) bool {
	if e.done || e.err != nil {
		return false
	}
	if e.pc < 0 || e.pc >= len(e.prog.Code) {
		e.err = fmt.Errorf("trace: pc %d out of range", e.pc)
		return false
	}
	in := &e.prog.Code[e.pc]
	if in.Op == isa.HALT {
		e.done = true
		return false
	}

	d.Seq = e.seq
	e.seq++
	load, store, ok := eval(d, e.pc, in, &e.regs)
	switch {
	case !ok:
		e.err = fmt.Errorf("trace: pc %d: unimplemented opcode %v", e.pc, in.Op)
		return false
	case load:
		if in.Op == isa.LB {
			d.DstVal = uint64(int64(int8(e.mem.Load8(d.Addr))))
		} else {
			d.DstVal = e.mem.Load64(d.Addr)
		}
		e.regs.write(in.Rd, d.DstVal)
	case store:
		if in.Op == isa.SB {
			e.mem.Store8(d.Addr, byte(d.SrcVal[1]))
		} else {
			e.mem.Store64(d.Addr, d.SrcVal[1])
		}
	}
	e.pc = d.NextPC
	return true
}

// regFile is the architectural register file, 64 raw values. It starts
// at zero, and write discards R0 and invalid registers, so R0 reads as
// zero.
type regFile [isa.NumRegs]uint64

// read returns register r. The mask changes no valid index: it only
// lets the compiler drop the bounds check.
func (rf *regFile) read(r isa.RegID) uint64 { return rf[r&(isa.NumRegs-1)] }

func (rf *regFile) write(rd isa.RegID, v uint64) {
	if rd != isa.R0 && rd < isa.NumRegs {
		rf[rd] = v
	}
}

// infos is isa's opcode table, held here so that eval reads an entry in
// place: isa.InfoFor returns a copy, which goes through the stack.
var infos = func() (t [isa.NumOpcodes]isa.Info) {
	for op := range t {
		t[op] = isa.InfoFor(isa.Opcode(op))
	}
	return t
}()

// eval is the instruction semantics, the one definition Executor and
// Cursor share. Given the record's PC and instruction, it sets every
// field of d but Seq from rf: the source values (zero past the opcode's
// sources), a memory op's address, the taken bit, the next PC and every
// destination value but a load's (zero), which it also writes to rf. It
// does not touch memory: it reports a load, whose value the caller
// stores in d.DstVal and writes to rf, and a store, which the caller
// performs. ok is false for an opcode eval cannot execute (HALT, or one
// out of range, which leaves d as it was).
//
// eval reads the instruction through in and the opcode table through a
// pointer, and sets d's fields one by one: a copy of any of these
// structs goes through the stack, where reading a field back from a
// wider store can stall the load.
func eval(d *DynInst, pc int, in *isa.Inst, rf *regFile) (load, store, ok bool) {
	if int(in.Op) >= isa.NumOpcodes {
		return false, false, false
	}
	info := &infos[in.Op]
	var sa, sb uint64
	switch info.NumSrc {
	case 2:
		sb = rf.read(in.Rb)
		fallthrough
	case 1:
		sa = rf.read(in.Ra)
	}
	d.PC, d.Inst = pc, *in
	d.SrcVal[0], d.SrcVal[1] = sa, sb
	a, b := int64(sa), int64(sb)
	next := pc + 1
	var v, addr uint64
	taken := false
	ok = true
	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		v = uint64(a + b)
	case isa.SUB:
		v = uint64(a - b)
	case isa.AND:
		v = uint64(a & b)
	case isa.OR:
		v = uint64(a | b)
	case isa.XOR:
		v = uint64(a ^ b)
	case isa.SLL:
		v = uint64(a << (uint64(b) & 63))
	case isa.SRL:
		v = uint64(a) >> (uint64(b) & 63)
	case isa.SRA:
		v = uint64(a >> (uint64(b) & 63))
	case isa.SLT:
		v = boolVal(a < b)
	case isa.SLTU:
		v = boolVal(uint64(a) < uint64(b))
	case isa.ADDI:
		v = uint64(a + in.Imm)
	case isa.ANDI:
		v = uint64(a & in.Imm)
	case isa.ORI:
		v = uint64(a | in.Imm)
	case isa.XORI:
		v = uint64(a ^ in.Imm)
	case isa.SLLI:
		v = uint64(a << (uint64(in.Imm) & 63))
	case isa.SRLI:
		v = uint64(a) >> (uint64(in.Imm) & 63)
	case isa.SRAI:
		v = uint64(a >> (uint64(in.Imm) & 63))
	case isa.SLTI:
		v = boolVal(a < in.Imm)
	case isa.LI:
		v = uint64(in.Imm)
	case isa.MUL:
		v = uint64(a * b)
	case isa.DIV:
		if b != 0 {
			v = uint64(a / b)
		}
	case isa.REM:
		v = uint64(a)
		if b != 0 {
			v = uint64(a % b)
		}
	case isa.LW, isa.FLW, isa.LB, isa.SW, isa.FSW, isa.SB:
		addr = uint64(a + in.Imm)
	case isa.BEQ:
		taken = a == b
	case isa.BNE:
		taken = a != b
	case isa.BLT:
		taken = a < b
	case isa.BGE:
		taken = a >= b
	case isa.BLTU:
		taken = uint64(a) < uint64(b)
	case isa.BGEU:
		taken = uint64(a) >= uint64(b)
	case isa.J:
		taken = true
		next = in.Target
	case isa.JAL:
		taken = true
		v = uint64(pc + 1)
		next = in.Target
	case isa.JR:
		taken = true
		next = int(uint64(a))
	case isa.FADD:
		v = f2b(b2f(uint64(a)) + b2f(uint64(b)))
	case isa.FSUB:
		v = f2b(b2f(uint64(a)) - b2f(uint64(b)))
	case isa.FMUL:
		v = f2b(b2f(uint64(a)) * b2f(uint64(b)))
	case isa.FDIV:
		if den := b2f(uint64(b)); den == 0 {
			v = f2b(0)
		} else {
			v = f2b(b2f(uint64(a)) / den)
		}
	case isa.FNEG:
		v = f2b(-b2f(uint64(a)))
	case isa.FABS:
		v = f2b(math.Abs(b2f(uint64(a))))
	case isa.FMOV:
		v = uint64(a)
	case isa.FLI:
		v = f2b(in.FImm)
	case isa.CVTIF:
		v = f2b(float64(a))
	case isa.CVTFI:
		v = uint64(int64(b2f(uint64(a))))
	case isa.FLT:
		v = boolVal(b2f(uint64(a)) < b2f(uint64(b)))
	case isa.FLE:
		v = boolVal(b2f(uint64(a)) <= b2f(uint64(b)))
	case isa.FEQ:
		v = boolVal(b2f(uint64(a)) == b2f(uint64(b)))
	default:
		ok = false
	}
	if info.IsCondBranch && taken {
		next = in.Target
	}
	d.NextPC, d.Taken, d.DstVal, d.Addr = next, taken, v, addr
	if info.HasDest && !info.IsLoad {
		rf.write(in.Rd, v)
	}
	return info.IsLoad, info.IsStore, ok
}

// Run executes the whole program (up to limit dynamic instructions,
// 0 = default of 100M) and returns the number of instructions executed.
func (e *Executor) Run(limit uint64) (uint64, error) {
	if limit == 0 {
		limit = 100_000_000
	}
	var d DynInst
	for e.Next(&d) {
		if d.Seq+1 >= limit {
			e.err = fmt.Errorf("%w after %d instructions", ErrRunaway, limit)
			break
		}
	}
	return e.seq, e.err
}

// Collect executes prog fully and returns the dynamic trace as a slice.
// Intended for tests and small programs; large runs should stream via
// Next.
func Collect(prog *program.Program, limit uint64) ([]DynInst, error) {
	if limit == 0 {
		limit = 10_000_000
	}
	e := NewExecutor(prog)
	var out []DynInst
	var d DynInst
	for e.Next(&d) {
		out = append(out, d)
		if uint64(len(out)) >= limit {
			return out, fmt.Errorf("%w after %d instructions", ErrRunaway, limit)
		}
	}
	return out, e.Err()
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func b2f(b uint64) float64 { return math.Float64frombits(b) }
func f2b(f float64) uint64 { return math.Float64bits(f) }
