package trace

// In-memory columnar trace form. A grid replays the same .cvt stream
// under dozens of configurations; decoding it once into a compact
// struct-of-arrays representation and replaying through a per-job
// Cursor turns every job after the first from CRC + varint-delta decode
// into a few array reads per instruction — with zero per-Next
// allocations and no shared mutable state, so any number of jobs can
// replay one MemTrace concurrently.
//
// The form stores only what the stream cannot rebuild: about 12 bytes
// a record on the kernel suite. Two fields of every record are
// redundant in a trace the functional executor wrote, and the cursor
// rebuilds them instead of storing them:
//
//   - a record's next PC is the following record's PC;
//   - a record's source values are what a register file holds that
//     starts at zero and takes every destination value in turn (R0
//     stays zero), the way Executor keeps its registers.
//
// ReadMemCapped checks both facts on every record. A trace that breaks
// either one has no in-memory form, and replays through the streaming
// Reader instead.

import (
	"errors"
	"fmt"
	"math"

	"clustervp/internal/isa"
)

// ErrNoMemForm means a trace cannot be held in the in-memory columnar
// form: its columns would exceed the caller's byte budget, its record
// count cannot be read from the end block before decoding, or a record
// breaks one of the two facts the form rebuilds (next PC, source
// values). Callers fall back to the streaming Reader; the sentinel is
// never a data-integrity error.
var ErrNoMemForm = errors.New("trace: no in-memory form")

// instApproxBytes is the per-instruction accounting charge for the
// static code column (a deliberate overestimate of unsafe.Sizeof).
const instApproxBytes = 48

// MemTrace is a fully decoded trace in struct-of-arrays layout: PCs as
// an int32 column, taken bits as a bitset, and the destination and
// address values in record order in one uint64 column (each record
// contributes HasDest + IsLoad|IsStore values, so a cursor needs only
// a running index). Every column is allocated at its exact length. The
// struct is immutable after ReadMem and safe for concurrent Cursors.
type MemTrace struct {
	name  string
	code  []isa.Inst
	pc    []int32
	taken []uint64 // bitset, one bit per record
	vals  []uint64 // per record: destination value, then address
	last  int      // the final record's next PC
}

// Name returns the workload name from the trace header.
func (t *MemTrace) Name() string { return t.name }

// Len returns the number of dynamic records.
func (t *MemTrace) Len() int { return len(t.pc) }

// SizeBytes returns the resident size used for arena accounting: the
// bytes the columns hold, plus the name and the shared code column
// charged at a fixed overestimate per instruction.
func (t *MemTrace) SizeBytes() int64 {
	return fixedBytes(t.name, t.code) + 4*int64(len(t.pc)) + 8*int64(len(t.taken)) + 8*int64(len(t.vals))
}

// fixedBytes is the charge for a trace's name and static code.
func fixedBytes(name string, code []isa.Inst) int64 {
	return int64(len(name)) + int64(len(code))*instApproxBytes
}

// NewCursor returns a Source replaying the trace from the beginning.
// Cursors are independent; any number may replay one MemTrace at once.
func (t *MemTrace) NewCursor() *Cursor { return &Cursor{t: t} }

// regFile is the register file the compact form rebuilds source values
// from. It starts at zero and write discards R0, so R0 reads as zero.
type regFile [isa.NumRegs]uint64

// read returns register r. The Reader has checked every register a
// record names, so the mask changes no index: it only lets the
// compiler drop the bounds check.
func (rf *regFile) read(r isa.RegID) uint64 { return rf[r&(isa.NumRegs-1)] }

func (rf *regFile) write(rd isa.RegID, v uint64) {
	if rd != isa.R0 {
		rf[rd] = v
	}
}

// Cursor streams a MemTrace as a Source with zero allocations per Next.
type Cursor struct {
	t    *MemTrace
	i    int
	vi   int
	regs regFile
}

// Next implements Source: it rebuilds record i from the columns and
// the cursor's register file.
func (c *Cursor) Next(d *DynInst) bool {
	t := c.t
	i := c.i
	if i >= len(t.pc) {
		return false
	}
	pc := int(t.pc[i])
	in := t.code[pc]
	info := isa.InfoFor(in.Op)
	next := t.last
	if i+1 < len(t.pc) {
		next = int(t.pc[i+1])
	}
	*d = DynInst{Seq: uint64(i), PC: pc, Inst: in, NextPC: next}
	d.Taken = t.taken[i>>6]&(1<<uint(i&63)) != 0
	switch info.NumSrc {
	case 2:
		d.SrcVal[1] = c.regs.read(in.Rb)
		fallthrough
	case 1:
		d.SrcVal[0] = c.regs.read(in.Ra)
	}
	vi := c.vi
	if info.HasDest {
		d.DstVal = t.vals[vi]
		c.regs.write(in.Rd, d.DstVal)
		vi++
	}
	if info.IsLoad || info.IsStore {
		d.Addr = t.vals[vi]
		vi++
	}
	c.i = i + 1
	c.vi = vi
	return true
}

// Err implements Source. Decoding was fully validated (CRCs, trailer,
// record flags) when the MemTrace was built, so replay cannot fail.
func (c *Cursor) Err() error { return nil }

var _ Source = (*Cursor)(nil)

// ReadMem drains r into a MemTrace with no size bound. The reader must
// be freshly positioned at the first record; it is fully consumed and
// its end-of-trace marker verified.
func ReadMem(r *Reader) (*MemTrace, error) { return ReadMemCapped(r, 0) }

// ReadMemCapped is ReadMem with a byte budget. It sizes the columns
// before decoding, from the record count in the end block, so r must
// read a random-access input (an *os.File, a *bytes.Reader). The
// columns it allocates, and still holds, never exceed maxBytes (>0): a
// trace whose record count alone would exceed it gets ErrNoMemForm
// before any column is allocated. While decoding, the value column is
// held at its bound of two values a record, then copied once to its
// exact length. A non-positive maxBytes means unbounded.
//
// Every record is checked against the two facts the cursor rebuilds;
// the first record that breaks one ends the decode with ErrNoMemForm.
func ReadMemCapped(r *Reader, maxBytes int64) (*MemTrace, error) {
	n, ok := r.trailerRecords()
	if !ok {
		return nil, fmt.Errorf("%w: no record count readable from the end block", ErrNoMemForm)
	}
	if maxBytes <= 0 {
		maxBytes = math.MaxInt64
	}
	t := &MemTrace{name: r.Name(), code: r.Code()}
	// pc, taken and the value column at its bound take over 20 bytes a
	// record: the first test keeps the exact sum below from overflowing.
	held := fixedBytes(t.name, t.code)
	if held > maxBytes || n > uint64(maxBytes-held)/20 || n > math.MaxInt/2 {
		return nil, fmt.Errorf("%w: %d records exceed budget %d", ErrNoMemForm, n, maxBytes)
	}
	nrec := int(n)
	held += 4*int64(nrec) + 8*int64((nrec+63)/64) + 16*int64(nrec)
	if held > maxBytes {
		return nil, fmt.Errorf("%w: %d records exceed budget %d", ErrNoMemForm, n, maxBytes)
	}
	t.pc = make([]int32, nrec)
	t.taken = make([]uint64, (nrec+63)/64)
	vals := make([]uint64, 0, 2*nrec)

	var rf regFile
	var d DynInst
	i := 0
	for r.Next(&d) {
		if i == nrec {
			return nil, fmt.Errorf("%w: more records than the end block's %d", ErrNoMemForm, n)
		}
		if i > 0 && d.PC != t.last {
			return nil, fmt.Errorf("%w: record %d: pc %d is not the previous next pc %d", ErrNoMemForm, i, d.PC, t.last)
		}
		in := d.Inst
		info := d.Info()
		for j := 0; j < info.NumSrc; j++ {
			if reg := in.Source(j); d.SrcVal[j] != rf.read(reg) {
				return nil, fmt.Errorf("%w: record %d: source %d is %#x, register %d holds %#x", ErrNoMemForm, i, j, d.SrcVal[j], reg, rf.read(reg))
			}
		}
		t.pc[i] = int32(d.PC)
		if d.Taken {
			t.taken[i>>6] |= 1 << uint(i&63)
		}
		if info.HasDest {
			vals = append(vals, d.DstVal)
			rf.write(in.Rd, d.DstVal)
		}
		if info.IsLoad || info.IsStore {
			vals = append(vals, d.Addr)
		}
		t.last = d.NextPC
		i++
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if i != nrec {
		return nil, fmt.Errorf("%w: %d records, the end block claims %d", ErrNoMemForm, i, n)
	}
	if held+8*int64(len(vals)) > maxBytes {
		return nil, fmt.Errorf("%w: value column copy exceeds budget %d", ErrNoMemForm, maxBytes)
	}
	t.vals = make([]uint64, len(vals))
	copy(t.vals, vals)
	return t, nil
}
