package trace

// In-memory trace form. A grid replays the same .cvt stream under
// dozens of configurations; decoding it once and replaying it through a
// per-job Cursor turns every job after the first from CRC checks and
// block reads into one step of the instruction semantics per record —
// with zero per-Next allocations and no shared mutable state, so any
// number of jobs can replay one MemTrace concurrently.
//
// The form is the file's: the static code, the entry PC, the record
// count and the load column, each load the zigzag varint of its delta
// from the last value loaded at the same PC, byte for byte as the file's
// blocks hold it (format.go) — about a third of a byte a record on the
// kernel suite. The cursor re-executes each record with eval, the step
// Executor runs, and decodes a load's value from the column.
//
// ReadMemCapped drains a Reader, which re-executes every record and so
// checks every PC, opcode and load against the code, and keeps the
// column the Reader's blocks carry. A trace that replays through the
// Reader therefore replays through a Cursor, with the same records.

import (
	"errors"
	"fmt"
	"math"

	"clustervp/internal/isa"
)

// ErrNoMemForm means a trace does not fit the caller's byte budget in
// the in-memory form. Callers fall back to the streaming Reader; the
// sentinel is never a data-integrity error.
var ErrNoMemForm = errors.New("trace: no in-memory form")

// instApproxBytes is the per-instruction accounting charge for the
// static code column (a deliberate overestimate of unsafe.Sizeof).
const instApproxBytes = 48

// minColumnCap is the load column's first capacity while decoding.
const minColumnCap = 1 << 12

// MemTrace is a fully decoded trace: the static code, the entry PC, the
// record count and the load column at its exact length. The struct is
// immutable after ReadMem and safe for concurrent Cursors.
type MemTrace struct {
	name  string
	code  []isa.Inst
	entry int // the first record's PC
	n     int
	col   []byte
}

// Name returns the workload name from the trace header.
func (t *MemTrace) Name() string { return t.name }

// Len returns the number of dynamic records.
func (t *MemTrace) Len() int { return t.n }

// SizeBytes returns the resident size used for arena accounting: the
// bytes the load column holds, plus the name and the shared code column
// charged at a fixed overestimate per instruction.
func (t *MemTrace) SizeBytes() int64 {
	return fixedBytes(t.name, t.code) + int64(len(t.col))
}

// fixedBytes is the charge for a trace's name and static code.
func fixedBytes(name string, code []isa.Inst) int64 {
	return int64(len(name)) + int64(len(code))*instApproxBytes
}

// NewCursor returns a Source replaying the trace from the beginning.
// Cursors are independent; any number may replay one MemTrace at once.
func (t *MemTrace) NewCursor() *Cursor {
	return &Cursor{n: t.n, m: machine{code: t.code, pc: t.entry, last: make([]uint64, len(t.code)), col: t.col}}
}

// Cursor streams a MemTrace as a Source with zero allocations per Next.
type Cursor struct {
	n, i int // records in the trace, records replayed
	m    machine
}

// Next implements Source: it re-executes record i on the cursor's
// register file, decoding a load's value from the column.
func (c *Cursor) Next(d *DynInst) bool {
	if c.i >= c.n {
		return false
	}
	d.Seq = uint64(c.i)
	c.m.step(d) // ReadMemCapped re-executed every record: step cannot fail
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

// ReadMemCapped is ReadMem with a byte budget. It drains r, which
// re-executes every record, and keeps each block's load column as it
// is read: the column grows by doubling from what was read, never from
// a count the input claims, and is then copied once to its exact
// length. What it allocates and still holds never exceeds maxBytes
// (>0), so a trace whose column would exceed it gets ErrNoMemForm. A
// non-positive maxBytes means unbounded. Any other error is the
// Reader's: the trace is corrupt, and streams no better.
func ReadMemCapped(r *Reader, maxBytes int64) (*MemTrace, error) {
	if r.seq != 0 || r.err != nil || r.done {
		return nil, errors.New("trace: ReadMem needs a Reader at its first record")
	}
	if maxBytes <= 0 {
		maxBytes = math.MaxInt64
	}
	t := &MemTrace{name: r.name, code: r.m.code, entry: r.m.pc}
	held := fixedBytes(t.name, t.code)
	if held > maxBytes {
		return nil, fmt.Errorf("%w: code of %d instructions exceeds budget %d", ErrNoMemForm, len(t.code), maxBytes)
	}
	// room is what the column may hold, old and new copies together
	// while it grows.
	room := maxBytes - held
	var col []byte
	r.keep = func(block []byte) error {
		if need := len(col) + len(block); need > cap(col) {
			grown := min(max(2*int64(cap(col)), int64(need), minColumnCap), room-int64(cap(col)))
			if grown < int64(need) {
				return fmt.Errorf("%w: load column exceeds budget %d", ErrNoMemForm, maxBytes)
			}
			col = append(make([]byte, 0, grown), col...)
		}
		col = append(col, block...)
		return nil
	}
	var d DynInst
	for r.Next(&d) {
	}
	r.keep = nil
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(col) < cap(col) {
		if int64(cap(col)+len(col)) > room {
			return nil, fmt.Errorf("%w: load column copy exceeds budget %d", ErrNoMemForm, maxBytes)
		}
		col = append(make([]byte, 0, len(col)), col...)
	}
	t.n, t.col = int(r.seq), col
	return t, nil
}
