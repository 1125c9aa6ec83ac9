package trace

// In-memory trace form. A grid replays the same .cvt stream under
// dozens of configurations; decoding it once and replaying it through a
// per-job Cursor turns every job after the first from CRC + varint-delta
// decode into one step of the instruction semantics per record — with
// zero per-Next allocations and no shared mutable state, so any number
// of jobs can replay one MemTrace concurrently.
//
// The form stores only what the code cannot determine: the value each
// load returned, about one byte a record on the kernel suite. In a
// trace the functional executor wrote, every other field of a record
// follows from the static code, the entry PC and a register file that
// starts at zero and takes every destination value in turn: the source
// values, the address, the taken bit, the next PC (the following
// record's PC) and every destination value but a load's. The cursor
// re-executes each record with eval, the step Executor runs, and takes
// a load's value from the load column.
//
// ReadMemCapped re-executes every record the same way and compares each
// field with the Reader's. A trace with a record off that model has no
// in-memory form, and replays through the streaming Reader instead.

import (
	"errors"
	"fmt"
	"math"

	"clustervp/internal/isa"
)

// ErrNoMemForm means a trace cannot be held in the in-memory form: its
// load column would exceed the caller's byte budget, its record count
// cannot be read from the end block before decoding, or a record is not
// what re-executing the code gives. Callers fall back to the streaming
// Reader; the sentinel is never a data-integrity error.
var ErrNoMemForm = errors.New("trace: no in-memory form")

// instApproxBytes is the per-instruction accounting charge for the
// static code column (a deliberate overestimate of unsafe.Sizeof).
const instApproxBytes = 48

// minLoadCap is the load column's first capacity while decoding.
const minLoadCap = 1 << 10

// MemTrace is a fully decoded trace: the static code, the entry PC, the
// record count and the value of every load in record order, the load
// column at its exact length. The struct is immutable after ReadMem and
// safe for concurrent Cursors.
type MemTrace struct {
	name  string
	code  []isa.Inst
	entry int // the first record's PC
	n     int
	loads []uint64
}

// Name returns the workload name from the trace header.
func (t *MemTrace) Name() string { return t.name }

// Len returns the number of dynamic records.
func (t *MemTrace) Len() int { return t.n }

// SizeBytes returns the resident size used for arena accounting: the
// bytes the load column holds, plus the name and the shared code column
// charged at a fixed overestimate per instruction.
func (t *MemTrace) SizeBytes() int64 {
	return fixedBytes(t.name, t.code) + 8*int64(len(t.loads))
}

// fixedBytes is the charge for a trace's name and static code.
func fixedBytes(name string, code []isa.Inst) int64 {
	return int64(len(name)) + int64(len(code))*instApproxBytes
}

// NewCursor returns a Source replaying the trace from the beginning.
// Cursors are independent; any number may replay one MemTrace at once.
func (t *MemTrace) NewCursor() *Cursor { return &Cursor{t: t, pc: t.entry} }

// Cursor streams a MemTrace as a Source with zero allocations per Next.
type Cursor struct {
	t    *MemTrace
	i    int // records replayed
	li   int // loads replayed
	pc   int
	regs regFile
}

// Next implements Source: it re-executes record i on the cursor's
// register file, taking a load's value from the load column.
func (c *Cursor) Next(d *DynInst) bool {
	t := c.t
	if c.i >= t.n {
		return false
	}
	in := &t.code[c.pc]
	d.Seq = uint64(c.i)
	if load, _, _ := eval(d, c.pc, in, &c.regs); load {
		d.DstVal = t.loads[c.li]
		c.li++
		c.regs.write(in.Rd, d.DstVal)
	}
	c.pc = d.NextPC
	c.i++
	return true
}

// Err implements Source. Decoding was fully validated (CRCs, trailer,
// every record re-executed) when the MemTrace was built, so replay
// cannot fail.
func (c *Cursor) Err() error { return nil }

var _ Source = (*Cursor)(nil)

// ReadMem drains r into a MemTrace with no size bound. The reader must
// be freshly positioned at the first record; it is fully consumed and
// its end-of-trace marker verified.
func ReadMem(r *Reader) (*MemTrace, error) { return ReadMemCapped(r, 0) }

// ReadMemCapped is ReadMem with a byte budget. It reads the record
// count from the end block before decoding, so r must read a
// random-access input (an *os.File, a *bytes.Reader). The load column
// grows while decoding, and is then copied once to its exact length;
// what it allocates and still holds never exceeds maxBytes (>0), so a
// trace whose loads would exceed it gets ErrNoMemForm. The count only
// caps the column's growth, at one value a record: no allocation is
// sized by it alone. A non-positive maxBytes means unbounded.
//
// A cursor of its own replays the trace as it is built, and every
// record it yields is compared field by field with the Reader's; the
// first record that differs ends the decode with ErrNoMemForm. So the
// MemTrace returned replays exactly the Reader's records.
func ReadMemCapped(r *Reader, maxBytes int64) (*MemTrace, error) {
	n, ok := r.trailerRecords()
	if !ok {
		return nil, fmt.Errorf("%w: no record count readable from the end block", ErrNoMemForm)
	}
	if maxBytes <= 0 {
		maxBytes = math.MaxInt64
	}
	t := &MemTrace{name: r.Name(), code: r.Code()}
	held := fixedBytes(t.name, t.code)
	if held > maxBytes {
		return nil, fmt.Errorf("%w: code of %d instructions exceeds budget %d", ErrNoMemForm, len(t.code), maxBytes)
	}
	// room is the most load values the budget lets the column hold at
	// once; a load column never holds more values than there are records.
	room, most := (maxBytes-held)/8, int64(min(n, math.MaxInt/8))
	c := Cursor{t: t}
	var d, want DynInst
	for r.Next(&d) {
		if t.n == 0 {
			t.entry, c.pc = d.PC, d.PC
		}
		if d.PC != c.pc {
			return nil, fmt.Errorf("%w: record %d: pc %d is not the previous next pc %d", ErrNoMemForm, t.n, d.PC, c.pc)
		}
		if infos[d.Inst.Op].IsLoad {
			if len(t.loads) == cap(t.loads) {
				// Double, while the old and the new column fit in room.
				grown := min(max(2*int64(cap(t.loads)), minLoadCap), most, room-int64(cap(t.loads)))
				if grown <= int64(len(t.loads)) {
					return nil, fmt.Errorf("%w: load column exceeds budget %d", ErrNoMemForm, maxBytes)
				}
				t.loads = append(make([]uint64, 0, grown), t.loads...)
			}
			t.loads = append(t.loads, d.DstVal)
		}
		t.n++
		c.Next(&want)
		if err := offModel(&d, &want); err != nil {
			return nil, err
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(t.loads) < cap(t.loads) {
		if int64(cap(t.loads)+len(t.loads)) > room {
			return nil, fmt.Errorf("%w: load column copy exceeds budget %d", ErrNoMemForm, maxBytes)
		}
		t.loads = append(make([]uint64, 0, len(t.loads)), t.loads...)
	}
	return t, nil
}

// offModel returns ErrNoMemForm, naming the first field that differs,
// when a record as the Reader decoded it (got) is not the record the
// cursor replays (want) at the same PC.
func offModel(got, want *DynInst) error {
	var field string
	var g, w any
	switch {
	case got.Seq != want.Seq:
		field, g, w = "seq", got.Seq, want.Seq
	case got.Taken != want.Taken:
		field, g, w = "taken", got.Taken, want.Taken
	case got.NextPC != want.NextPC:
		field, g, w = "next pc", got.NextPC, want.NextPC
	case got.SrcVal != want.SrcVal:
		field, g, w = "source values", got.SrcVal, want.SrcVal
	case got.Addr != want.Addr:
		field, g, w = "address", got.Addr, want.Addr
	case got.DstVal != want.DstVal:
		field, g, w = "destination", got.DstVal, want.DstVal
	default:
		return nil
	}
	return fmt.Errorf("%w: record %d: %s is %v, re-execution gives %v", ErrNoMemForm, want.Seq, field, g, w)
}
