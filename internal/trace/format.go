package trace

// This file defines the .cvt ("clustervp trace") binary container: the
// static code of a program, its entry PC, its record count and a
// CRC-checked column of the values its loads returned. Nothing else is
// stored, because nothing else needs to be: a record's PC is the
// previous record's next PC, and every other field but a load's value
// follows from the code and a register file that starts at zero (eval).
// The Writer re-executes each record it is given and refuses one that
// differs; the Reader re-executes each record it yields.
//
// Layout (all integers are unsigned LEB128 varints unless noted; "zz"
// marks zigzag-encoded signed varints; CRCs are IEEE CRC-32 of the
// preceding payload, little-endian fixed 4 bytes):
//
//	file   := magic "CVTR" | version byte (2) | header | block* | end
//	header := payloadLen | payload | crc32
//	          payload := nameLen | name | codeLen | inst* | entry
//	inst   := op | rd byte | ra byte | rb byte | zz imm | fimmBits | zz target
//	block  := recordCount (>0) | payloadLen | payload | crc32
//	          payload := zz loadDelta*   (one per load among the block's records)
//	end    := 0 | totalRecords | crc32 (over the totalRecords varint)
//
// A load's delta is its value minus the last value loaded at the same
// static PC (zero before the first), the stride the paper's value
// predictor learns per PC: a strided or repeated load costs one byte.
// A block's payload holds exactly the loads of its records, so the
// concatenated payloads are the trace's load column, which the
// in-memory form keeps byte for byte (mem.go).
//
// Versioning policy: the version byte after the magic is bumped on any
// incompatible change to the layout, and the golden encoding in
// format_test.go changes with it. Readers reject every other version
// with ErrVersion rather than guessing; there is no reader for the
// version 1 per-record delta layout.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"clustervp/internal/isa"
)

// Magic identifies a .cvt trace file.
const Magic = "CVTR"

// Version is the current trace format version.
const Version = 2

// Decode-time limits: adversarial length fields must not drive
// allocation or work, so every variable-size structure is capped before
// any buffer is grown and any record re-executed (FuzzTraceReader locks
// this in). maxHeaderPayload must accommodate the worst-case valid
// header — maxCodeLen instructions at maxInstEncoding bytes each plus
// the name and the entry PC — so that everything NewWriter accepts,
// NewReader accepts back. maxRecords bounds the records a trace may
// hold: a few bytes can claim any number of records of a loop with no
// loads, so a claim above it is refused before re-execution starts. It
// is far above any trace the kernel suite writes and fits an int on
// 32-bit platforms. maxBlockRecords is the Writer's block size, the
// largest block it writes, so an input must spend at least a block's 7
// bytes of framing per 4,096 records it claims.
const (
	maxNameLen       = 1 << 12
	maxCodeLen       = 1 << 18
	maxInstEncoding  = 2 + 3 + 10 + 10 + 10 // op + regs + imm + fimm + target varints
	maxHeaderPayload = maxNameLen + 3*10 + maxCodeLen*maxInstEncoding
	maxBlockPayload  = 1 << 20
	maxBlockRecords  = flushRecords
	maxRecords       = 1 << 28
)

// Writer-side block bounds: a block flushes at whichever limit it hits
// first. flushBytes sits far under the decoder's maxBlockPayload.
const (
	flushRecords = 1 << 12
	flushBytes   = 1 << 18
)

// Typed errors. Every failure path wraps exactly one of these, so
// callers can errors.Is-classify without string matching.
var (
	// ErrBadMagic means the input does not start with a .cvt header.
	ErrBadMagic = errors.New("trace: not a .cvt trace file")
	// ErrVersion means the file's format version is not supported.
	ErrVersion = errors.New("trace: unsupported trace format version")
	// ErrCorrupt means a CRC mismatch, a structurally invalid field or
	// a record the code cannot re-execute.
	ErrCorrupt = errors.New("trace: corrupt trace")
	// ErrTruncated means the stream ended before the end-of-trace marker.
	ErrTruncated = errors.New("trace: truncated trace")
	// ErrOffModel means the Writer was given a record that is not what
	// executing the code gives, which the format cannot store.
	ErrOffModel = errors.New("trace: record is not what executing the code gives")
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer streams DynInst records into a .cvt container. It buffers one
// block at a time; Close writes the end-of-trace marker (it does not
// close the underlying io.Writer).
type Writer struct {
	w       io.Writer
	header  []byte // the header payload but the entry PC; nil once written
	code    []isa.Inst
	pc      int // the PC the next record must have
	regs    regFile
	last    []uint64 // the last value loaded at each PC
	payload []byte   // current block's load column
	scratch []byte   // varint staging for block headers
	records int
	total   uint64
	err     error
}

// NewWriter checks the trace name and the static code the records index
// into and returns a Writer for the record stream. The header is written
// with the first record, whose PC is the entry PC, or by Close.
func NewWriter(w io.Writer, name string, code []isa.Inst) (*Writer, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("%w: trace name %d bytes exceeds %d", ErrCorrupt, len(name), maxNameLen)
	}
	if len(code) > maxCodeLen {
		return nil, fmt.Errorf("%w: static code %d instructions exceeds %d", ErrCorrupt, len(code), maxCodeLen)
	}
	hdr := binary.AppendUvarint(nil, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, uint64(len(code)))
	for _, in := range code {
		hdr = binary.AppendUvarint(hdr, uint64(in.Op))
		hdr = append(hdr, byte(in.Rd), byte(in.Ra), byte(in.Rb))
		hdr = binary.AppendUvarint(hdr, zigzag(in.Imm))
		hdr = binary.AppendUvarint(hdr, f2b(in.FImm))
		hdr = binary.AppendUvarint(hdr, zigzag(int64(in.Target)))
	}
	return &Writer{w: w, header: hdr, code: code, last: make([]uint64, len(code))}, nil
}

// writeHeader writes the magic, the version and the header with the
// entry PC.
func (w *Writer) writeHeader(entry int) error {
	hdr := binary.AppendUvarint(w.header, uint64(entry))
	w.header = nil
	if _, err := io.WriteString(w.w, Magic); err != nil {
		return err
	}
	if _, err := w.w.Write([]byte{Version}); err != nil {
		return err
	}
	return w.writeChecked(hdr, nil)
}

// writeChecked emits prefix varints, a length-prefixed payload and its
// CRC — the framing shared by the header and every block.
func (w *Writer) writeChecked(payload []byte, prefix []uint64) error {
	w.scratch = w.scratch[:0]
	for _, p := range prefix {
		w.scratch = binary.AppendUvarint(w.scratch, p)
	}
	w.scratch = binary.AppendUvarint(w.scratch, uint64(len(payload)))
	if _, err := w.w.Write(w.scratch); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.w.Write(crc[:])
	return err
}

// Write appends one record to the stream. It re-executes the record on
// the Writer's own register file and refuses it with ErrOffModel when
// any field differs; after a refusal every call fails the same way.
func (w *Writer) Write(d *DynInst) error {
	if w.err != nil {
		return w.err
	}
	if w.header != nil {
		w.pc = d.PC
	}
	load, err := w.check(d)
	if err != nil {
		w.err = err
		return err
	}
	if w.header != nil {
		if w.err = w.writeHeader(d.PC); w.err != nil {
			return w.err
		}
	}
	if load {
		w.payload = binary.AppendUvarint(w.payload, zigzag(int64(d.DstVal-w.last[d.PC])))
		w.last[d.PC] = d.DstVal
	}
	w.pc = d.NextPC
	w.records++
	w.total++
	if w.records >= flushRecords || len(w.payload) >= flushBytes {
		w.err = w.flush()
	}
	return w.err
}

// check re-executes the record the Writer expects next and compares d
// with it, a load's value taken from d. It reports whether d is a load.
func (w *Writer) check(d *DynInst) (load bool, err error) {
	if w.total >= maxRecords {
		return false, fmt.Errorf("%w: more than %d records", ErrCorrupt, maxRecords)
	}
	pc := w.pc
	if pc < 0 || pc >= len(w.code) {
		return false, fmt.Errorf("%w: record %d: pc %d outside code [0,%d)", ErrOffModel, w.total, pc, len(w.code))
	}
	in := &w.code[pc]
	var want DynInst
	load, _, ok := eval(&want, pc, in, &w.regs)
	if !ok {
		return false, fmt.Errorf("%w: record %d: pc %d: %v does not execute", ErrOffModel, w.total, pc, in.Op)
	}
	want.Seq = w.total
	if load {
		want.DstVal = d.DstVal
		w.regs.write(in.Rd, d.DstVal)
	}
	if !sameRecord(d, &want) {
		return false, fmt.Errorf("%w: record %d is %+v, executing the code gives %+v", ErrOffModel, w.total, *d, want)
	}
	return load, nil
}

// sameRecord reports whether two records are bit-for-bit equal. A NaN
// immediate is equal to itself, so FImm compares by its bits. It
// compares field by field: copying the records to compare them as
// structs took a quarter of the time to write a trace.
func sameRecord(a, b *DynInst) bool {
	x, y := &a.Inst, &b.Inst
	return a.Seq == b.Seq && a.PC == b.PC && a.NextPC == b.NextPC && a.Taken == b.Taken &&
		a.SrcVal == b.SrcVal && a.DstVal == b.DstVal && a.Addr == b.Addr &&
		x.Op == y.Op && x.Rd == y.Rd && x.Ra == y.Ra && x.Rb == y.Rb &&
		x.Imm == y.Imm && x.Target == y.Target && f2b(x.FImm) == f2b(y.FImm)
}

// flush writes the buffered block, if any.
func (w *Writer) flush() error {
	if w.records == 0 {
		return nil
	}
	err := w.writeChecked(w.payload, []uint64{uint64(w.records)})
	w.payload = w.payload[:0]
	w.records = 0
	return err
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.total }

// Close flushes the final block and writes the end-of-trace marker with
// the total record count, after the header if no record was written
// (entry PC 0). It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.header != nil {
		if w.err = w.writeHeader(0); w.err != nil {
			return w.err
		}
	}
	if err := w.flush(); err != nil {
		w.err = err
		return err
	}
	w.scratch = binary.AppendUvarint(w.scratch[:0], 0)
	w.scratch = binary.AppendUvarint(w.scratch, w.total)
	tail := w.scratch[1:] // CRC covers the totalRecords varint only
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(tail))
	if _, err := w.w.Write(w.scratch); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(crc[:]); err != nil {
		w.err = err
		return err
	}
	w.err = errors.New("trace: writer closed")
	return nil
}

// machine re-executes a trace: the code, the next record's PC, a
// register file, the last value loaded at each PC and the load column
// the loads take their values from. The Reader steps one over each
// block's column, a Cursor one over the whole column.
type machine struct {
	code []isa.Inst
	pc   int
	regs regFile
	last []uint64 // len(code)
	col  []byte
	off  int // the next load's offset in col
}

// step re-executes the record at m.pc into d (all but d.Seq), taking a
// load's value from the column. It fails, leaving m.pc at the record,
// on a PC outside the code, an opcode eval cannot execute and a load
// past the column's end; fault then says which.
func (m *machine) step(d *DynInst) bool {
	pc := m.pc
	if pc < 0 || pc >= len(m.code) {
		return false
	}
	in := &m.code[pc]
	load, _, ok := eval(d, pc, in, &m.regs)
	if !ok {
		return false
	}
	if load {
		var u uint64
		if m.off < len(m.col) && m.col[m.off] < 0x80 {
			u = uint64(m.col[m.off])
			m.off++
		} else {
			v, n := binary.Uvarint(m.col[m.off:])
			if n <= 0 {
				return false
			}
			u = v
			m.off += n
		}
		v := m.last[pc] + uint64(unzigzag(u))
		m.last[pc] = v
		d.DstVal = v
		m.regs.write(in.Rd, v)
	}
	m.pc = d.NextPC
	return true
}

// fault describes why step failed at m.pc.
func (m *machine) fault() string {
	pc := m.pc
	if pc < 0 || pc >= len(m.code) {
		return fmt.Sprintf("pc %d outside code [0,%d)", pc, len(m.code))
	}
	var d DynInst
	var rf regFile
	if _, _, ok := eval(&d, pc, &m.code[pc], &rf); !ok {
		return fmt.Sprintf("pc %d: %v does not execute", pc, m.code[pc].Op)
	}
	return fmt.Sprintf("pc %d: load at column byte %d of %d", pc, m.off, len(m.col))
}

// Reader streams DynInst records out of a .cvt container. It implements
// Source; decoding is strictly sequential and holds at most one block
// in memory, so traces never need to fit in RAM.
type Reader struct {
	r       *bufio.Reader
	name    string
	m       machine // col is the current block's payload
	scratch []byte  // reusable block buffer (full capacity)
	left    int     // records remaining in current block
	seq     uint64
	done    bool
	err     error
	// keep, when set, is given each block's payload as it is read:
	// ReadMemCapped collects the load column through it.
	keep func(payload []byte) error
}

// NewReader parses the .cvt header from r and returns a Reader
// positioned at the first record. When r is random access (an
// *os.File, a *bytes.Reader) and its end block claims more records than
// a trace may hold, NewReader refuses it before any record is decoded.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: bufio.NewReaderSize(r, 1<<16)}
	var magic [5]byte
	if _, err := io.ReadFull(tr.r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadMagic, err)
	}
	if string(magic[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadMagic, magic[:4])
	}
	if magic[4] != Version {
		return nil, fmt.Errorf("%w: version %d (supported: %d)", ErrVersion, magic[4], Version)
	}
	hdr, err := tr.readChecked(maxHeaderPayload, "header")
	if err != nil {
		return nil, err
	}
	d := decoder{buf: hdr}
	nameLen := d.uvarint()
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("%w: name length %d exceeds %d", ErrCorrupt, nameLen, maxNameLen)
	}
	tr.name = string(d.bytes(int(nameLen)))
	codeLen := d.uvarint()
	if codeLen > maxCodeLen {
		return nil, fmt.Errorf("%w: code length %d exceeds %d", ErrCorrupt, codeLen, maxCodeLen)
	}
	var code []isa.Inst
	if d.err == nil {
		code = make([]isa.Inst, codeLen)
		for i := range code {
			op := d.uvarint()
			if op >= uint64(isa.NumOpcodes) {
				return nil, fmt.Errorf("%w: opcode %d out of range at code[%d]", ErrCorrupt, op, i)
			}
			code[i] = isa.Inst{
				Op:     isa.Opcode(op),
				Rd:     isa.RegID(d.byte()),
				Ra:     isa.RegID(d.byte()),
				Rb:     isa.RegID(d.byte()),
				Imm:    unzigzag(d.uvarint()),
				FImm:   b2f(d.uvarint()),
				Target: int(unzigzag(d.uvarint())),
			}
		}
	}
	entry := d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, d.err)
	}
	if d.off != len(hdr) {
		return nil, fmt.Errorf("%w: %d trailing header bytes", ErrCorrupt, len(hdr)-d.off)
	}
	if entry > maxCodeLen {
		return nil, fmt.Errorf("%w: entry pc %d exceeds %d", ErrCorrupt, entry, maxCodeLen)
	}
	if n, ok := trailerRecords(r); ok && n > maxRecords {
		return nil, fmt.Errorf("%w: end block claims %d records, more than %d", ErrCorrupt, n, maxRecords)
	}
	tr.m = machine{code: code, pc: int(entry), last: make([]uint64, len(code))}
	return tr, nil
}

// Name returns the trace's workload name from the header.
func (r *Reader) Name() string { return r.name }

// Code returns the static program the records index into.
func (r *Reader) Code() []isa.Inst { return r.m.code }

// Count returns the number of records decoded so far.
func (r *Reader) Count() uint64 { return r.seq }

// Err returns the first decode error, if any; nil after a clean drain.
func (r *Reader) Err() error { return r.err }

// readChecked reads a length-prefixed payload and verifies its CRC,
// reusing the Reader's block buffer. cap0 pre-validates the length
// against maxBlockPayload when non-zero.
func (r *Reader) readChecked(cap0 uint64, what string) ([]byte, error) {
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, fmt.Errorf("%w: %s length: %w", ErrTruncated, what, err)
	}
	limit := uint64(maxBlockPayload)
	if cap0 > 0 {
		limit = cap0
	}
	if n > limit {
		return nil, fmt.Errorf("%w: %s payload %d bytes exceeds %d", ErrCorrupt, what, n, limit)
	}
	if uint64(cap(r.scratch)) < n {
		r.scratch = make([]byte, n)
	}
	buf := r.scratch[:cap(r.scratch)][:n]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return nil, fmt.Errorf("%w: %s payload: %w", ErrTruncated, what, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r.r, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: %s checksum: %w", ErrTruncated, what, err)
	}
	if got, want := crc32.ChecksumIEEE(buf), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("%w: %s checksum mismatch (%08x != %08x)", ErrCorrupt, what, got, want)
	}
	return buf, nil
}

// nextBlock loads the next record block, or detects the end marker.
func (r *Reader) nextBlock() bool {
	count, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: block count: %w", ErrTruncated, err)
		return false
	}
	if count == 0 {
		// End-of-trace marker: total record count, CRC-checked.
		total, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("%w: trailer: %w", ErrTruncated, err)
			return false
		}
		var enc [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(enc[:], total)
		var crc [4]byte
		if _, err := io.ReadFull(r.r, crc[:]); err != nil {
			r.err = fmt.Errorf("%w: trailer checksum: %w", ErrTruncated, err)
			return false
		}
		if got, want := crc32.ChecksumIEEE(enc[:n]), binary.LittleEndian.Uint32(crc[:]); got != want {
			r.err = fmt.Errorf("%w: trailer checksum mismatch", ErrCorrupt)
			return false
		}
		if total != r.seq {
			r.err = fmt.Errorf("%w: trailer records %d, decoded %d", ErrCorrupt, total, r.seq)
			return false
		}
		// The end block ends the input: anything after it would give
		// the same records a second digest.
		if _, err := r.r.ReadByte(); err != io.EOF {
			if err == nil {
				err = fmt.Errorf("%w: bytes after the end block", ErrCorrupt)
			}
			r.err = err
			return false
		}
		r.done = true
		return false
	}
	if count > maxBlockRecords {
		r.err = fmt.Errorf("%w: block of %d records exceeds %d", ErrCorrupt, count, maxBlockRecords)
		return false
	}
	if r.seq+count > maxRecords {
		r.err = fmt.Errorf("%w: more than %d records", ErrCorrupt, maxRecords)
		return false
	}
	block, err := r.readChecked(0, "block")
	if err == nil && r.keep != nil {
		err = r.keep(block)
	}
	if err != nil {
		r.err = err
		return false
	}
	r.m.col, r.m.off = block, 0
	r.left = int(count)
	return true
}

// trailerRecords returns the record count the end block claims, read
// from the tail of a random-access input without moving the stream
// position. ok is false when the input is not random access or when
// its tail is not a well-formed end block. The count is a claim only:
// Next still checks the end block it streams against the records it
// decoded.
func trailerRecords(src io.Reader) (n uint64, ok bool) {
	ra, size := randomAccess(src)
	if ra == nil {
		return 0, false
	}
	var buf [1 + binary.MaxVarintLen64 + 4]byte
	tail := buf[:min(size, int64(len(buf)))]
	if got, _ := ra.ReadAt(tail, size-int64(len(tail))); got != len(tail) || len(tail) < 6 {
		return 0, false
	}
	body, crc := tail[:len(tail)-4], tail[len(tail)-4:]
	// The count's varint ends body: walk back over its continuation
	// bytes to the 0 that opens the end block.
	i := len(body) - 1
	if body[i]&0x80 != 0 {
		return 0, false
	}
	for i > 0 && body[i-1]&0x80 != 0 {
		i--
	}
	if i == 0 || body[i-1] != 0 {
		return 0, false
	}
	n, m := binary.Uvarint(body[i:])
	if m != len(body)-i {
		return 0, false
	}
	var enc [binary.MaxVarintLen64]byte
	if crc32.ChecksumIEEE(enc[:binary.PutUvarint(enc[:], n)]) != binary.LittleEndian.Uint32(crc) {
		return 0, false
	}
	return n, true
}

// randomAccess returns src as an io.ReaderAt with its size, or nil
// when src is not random access: a regular *os.File, or any reader
// with ReadAt and Size such as a *bytes.Reader.
func randomAccess(src io.Reader) (io.ReaderAt, int64) {
	switch s := src.(type) {
	case *os.File:
		fi, err := s.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return nil, 0
		}
		return s, fi.Size()
	case interface {
		io.ReaderAt
		Size() int64
	}:
		return s, s.Size()
	}
	return nil, 0
}

// Next implements Source: it re-executes one record into d, taking a
// load's value from the current block's column.
func (r *Reader) Next(d *DynInst) bool {
	if r.err != nil || r.done {
		return false
	}
	if r.left == 0 && !r.nextBlock() {
		return false
	}
	d.Seq = r.seq
	if !r.m.step(d) {
		r.err = fmt.Errorf("%w: record %d: %s", ErrCorrupt, r.seq, r.m.fault())
		return false
	}
	r.seq++
	if r.left--; r.left == 0 && r.m.off != len(r.m.col) {
		r.err = fmt.Errorf("%w: %d load column bytes left over in block", ErrCorrupt, len(r.m.col)-r.m.off)
		return false
	}
	return true
}

// decoder is a bounds-checked cursor over a byte slice; the first
// failure latches err and poisons all further reads.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = errors.New("unexpected end of payload")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = errors.New("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = errors.New("unexpected end of payload")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}
