package trace

// This file defines the .cvt ("clustervp trace") binary container: a
// versioned, CRC-checked, varint-delta-encoded stream of DynInst
// records that replays bit-for-bit through the timing simulator.
//
// Layout (all integers are unsigned LEB128 varints unless noted; "zz"
// marks zigzag-encoded signed varints; CRCs are IEEE CRC-32 of the
// preceding payload, little-endian fixed 4 bytes):
//
//	file   := magic "CVTR" | version byte | header | block* | end
//	header := payloadLen | payload | crc32
//	          payload := nameLen | name | codeLen | inst*
//	inst   := op | rd byte | ra byte | rb byte | zz imm | fimmBits | zz target
//	block  := recordCount (>0) | payloadLen | payload | crc32
//	          payload := record*
//	end    := 0 | totalRecords | crc32 (over the totalRecords varint)
//
//	record := flags byte | zz pcDelta | zz nextDelta |
//	          zz srcDelta{0..nsrc} | [zz dstDelta] | [zz addrDelta]
//
// The flags byte packs taken (bit 0), hasDst (bit 1), hasAddr (bit 2)
// and nsrc (bits 3-4). Deltas are taken against decoder-reconstructible
// state: pcDelta against the previous record's PC, nextDelta against
// PC+1 (zero for straight-line code), operand and destination values
// against the last value seen in that architectural register, and
// addresses against the last memory address. Both ends advance the same
// state machine, so the stream stays in sync without any absolute
// values after the first record — stride-heavy media kernels compress
// to a few bytes per dynamic instruction.
//
// Versioning policy: the version byte after the magic is bumped on any
// incompatible change to the header or record layout; readers reject
// unknown versions with ErrVersion rather than guessing. Additive
// changes ride on flags bits, which old readers reject as corrupt
// instead of silently misdecoding (unknown bits 5-7 must be zero).

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
const Version = 1

// Decode-time limits: adversarial length fields must not drive
// allocation, so every variable-size structure is capped before any
// buffer is grown (FuzzTraceReader locks this in). maxHeaderPayload
// must accommodate the worst-case valid header — maxCodeLen
// instructions at maxInstEncoding bytes each plus the name — so that
// everything NewWriter accepts, NewReader accepts back.
const (
	maxNameLen       = 1 << 12
	maxCodeLen       = 1 << 18
	maxInstEncoding  = 2 + 3 + 10 + 10 + 10 // op + regs + imm + fimm + target varints
	maxHeaderPayload = maxNameLen + 2*10 + maxCodeLen*maxInstEncoding
	maxBlockPayload  = 1 << 20
	maxBlockRecords  = 1 << 16
)

// Writer-side block bounds: a block flushes at whichever limit it hits
// first. Both sit far under the decoder caps.
const (
	flushRecords = 1 << 12
	flushBytes   = 1 << 18
)

// Typed decode errors. Every failure path wraps exactly one of these,
// so callers can errors.Is-classify without string matching.
var (
	// ErrBadMagic means the input does not start with a .cvt header.
	ErrBadMagic = errors.New("trace: not a .cvt trace file")
	// ErrVersion means the file's format version is not supported.
	ErrVersion = errors.New("trace: unsupported trace format version")
	// ErrCorrupt means a CRC mismatch or a structurally invalid field.
	ErrCorrupt = errors.New("trace: corrupt trace")
	// ErrTruncated means the stream ended before the end-of-trace marker.
	ErrTruncated = errors.New("trace: truncated trace")
)

// deltaState is the shared encoder/decoder prediction context.
type deltaState struct {
	pc      int
	lastVal [isa.NumRegs]uint64
	lastAdr uint64
}

const (
	flagTaken  = 1 << 0
	flagDst    = 1 << 1
	flagAddr   = 1 << 2
	nsrcShift  = 3
	nsrcMask   = 3 << nsrcShift
	flagUnused = ^byte(flagTaken | flagDst | flagAddr | nsrcMask)
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer streams DynInst records into a .cvt container. It buffers one
// block at a time; Close writes the end-of-trace marker (it does not
// close the underlying io.Writer).
type Writer struct {
	w       io.Writer
	st      deltaState
	payload []byte // current block, encoded
	scratch []byte // varint staging for block headers
	records int
	total   uint64
	err     error
}

// NewWriter writes the .cvt header (trace name plus the static code the
// records index into) and returns a Writer for the record stream.
func NewWriter(w io.Writer, name string, code []isa.Inst) (*Writer, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("%w: trace name %d bytes exceeds %d", ErrCorrupt, len(name), maxNameLen)
	}
	if len(code) > maxCodeLen {
		return nil, fmt.Errorf("%w: static code %d instructions exceeds %d", ErrCorrupt, len(code), maxCodeLen)
	}
	tw := &Writer{w: w}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, uint64(len(code)))
	for _, in := range code {
		hdr = binary.AppendUvarint(hdr, uint64(in.Op))
		hdr = append(hdr, byte(in.Rd), byte(in.Ra), byte(in.Rb))
		hdr = binary.AppendUvarint(hdr, zigzag(in.Imm))
		hdr = binary.AppendUvarint(hdr, f2b(in.FImm))
		hdr = binary.AppendUvarint(hdr, zigzag(int64(in.Target)))
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		return nil, err
	}
	if _, err := w.Write([]byte{Version}); err != nil {
		return nil, err
	}
	if err := tw.writeChecked(hdr, nil); err != nil {
		return nil, err
	}
	return tw, nil
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

// Write appends one record to the stream.
func (w *Writer) Write(d *DynInst) error {
	if w.err != nil {
		return w.err
	}
	info := d.Info()
	nsrc := info.NumSrc
	flags := byte(nsrc) << nsrcShift
	if d.Taken {
		flags |= flagTaken
	}
	if info.HasDest {
		flags |= flagDst
	}
	if info.IsLoad || info.IsStore {
		flags |= flagAddr
	}
	p := w.payload
	p = append(p, flags)
	p = binary.AppendUvarint(p, zigzag(int64(d.PC-w.st.pc)))
	p = binary.AppendUvarint(p, zigzag(int64(d.NextPC-(d.PC+1))))
	for i := 0; i < nsrc; i++ {
		r := d.Inst.Source(i)
		p = binary.AppendUvarint(p, zigzag(int64(d.SrcVal[i]-w.st.lastVal[r])))
		w.st.lastVal[r] = d.SrcVal[i]
	}
	if flags&flagDst != 0 {
		p = binary.AppendUvarint(p, zigzag(int64(d.DstVal-w.st.lastVal[d.Inst.Rd])))
		w.st.lastVal[d.Inst.Rd] = d.DstVal
	}
	if flags&flagAddr != 0 {
		p = binary.AppendUvarint(p, zigzag(int64(d.Addr-w.st.lastAdr)))
		w.st.lastAdr = d.Addr
	}
	w.payload = p
	w.st.pc = d.PC
	w.records++
	w.total++
	if w.records >= flushRecords || len(w.payload) >= flushBytes {
		w.err = w.flush()
	}
	return w.err
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
// the total record count. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
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

// Reader streams DynInst records out of a .cvt container. It implements
// Source; decoding is strictly sequential and holds at most one block
// in memory, so traces never need to fit in RAM.
type Reader struct {
	r    *bufio.Reader
	src  io.Reader // the undecorated input, for trailerRecords
	name string
	code []isa.Inst

	st      deltaState
	scratch []byte // reusable block buffer (full capacity)
	block   []byte // valid payload of the current block
	off     int    // decode position within block
	left    int    // records remaining in current block
	seq     uint64
	done    bool
	err     error
}

// NewReader parses the .cvt header from r and returns a Reader
// positioned at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: bufio.NewReaderSize(r, 1<<16), src: r}
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
	if d.err == nil {
		tr.code = make([]isa.Inst, codeLen)
		for i := range tr.code {
			op := d.uvarint()
			if op >= uint64(isa.NumOpcodes) {
				return nil, fmt.Errorf("%w: opcode %d out of range at code[%d]", ErrCorrupt, op, i)
			}
			tr.code[i] = isa.Inst{
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
	if d.err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, d.err)
	}
	if d.off != len(hdr) {
		return nil, fmt.Errorf("%w: %d trailing header bytes", ErrCorrupt, len(hdr)-d.off)
	}
	return tr, nil
}

// Name returns the trace's workload name from the header.
func (r *Reader) Name() string { return r.name }

// Code returns the static program the records index into.
func (r *Reader) Code() []isa.Inst { return r.code }

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
	block, err := r.readChecked(0, "block")
	if err != nil {
		r.err = err
		return false
	}
	r.block = block
	r.left = int(count)
	r.off = 0
	return true
}

// minRecordBytes is the smallest encoded record: the flags byte and
// one varint byte each for the pc and next-pc deltas.
const minRecordBytes = 3

// trailerRecords returns the record count the end block claims, read
// from the tail of a random-access input without moving the stream
// position. ok is false when the input is not random access, when its
// tail is not a well-formed end block, or when the count is more than
// the input's size could encode. The count is a claim only: Next still
// checks the end block it streams against the records it decoded.
func (r *Reader) trailerRecords() (n uint64, ok bool) {
	ra, size := randomAccess(r.src)
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
	if m != len(body)-i || n > uint64(size)/minRecordBytes {
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

// Next implements Source: it decodes one record into d.
func (r *Reader) Next(d *DynInst) bool {
	if r.err != nil || r.done {
		return false
	}
	if r.left == 0 && !r.nextBlock() {
		return false
	}
	dec := decoder{buf: r.block, off: r.off}
	flags := dec.byte()
	if flags&flagUnused != 0 {
		r.err = fmt.Errorf("%w: record %d: unknown flag bits %#02x", ErrCorrupt, r.seq, flags)
		return false
	}
	pc := r.st.pc + int(unzigzag(dec.uvarint()))
	if pc < 0 || pc >= len(r.code) {
		r.err = fmt.Errorf("%w: record %d: pc %d outside code [0,%d)", ErrCorrupt, r.seq, pc, len(r.code))
		return false
	}
	in := r.code[pc]
	nsrc := int(flags&nsrcMask) >> nsrcShift
	if info := isa.InfoFor(in.Op); nsrc != info.NumSrc ||
		(flags&flagDst != 0) != info.HasDest ||
		(flags&flagAddr != 0) != (info.IsLoad || info.IsStore) {
		r.err = fmt.Errorf("%w: record %d: flags %#02x inconsistent with opcode %v", ErrCorrupt, r.seq, flags, in.Op)
		return false
	}
	*d = DynInst{Seq: r.seq, PC: pc, Inst: in}
	d.NextPC = pc + 1 + int(unzigzag(dec.uvarint()))
	d.Taken = flags&flagTaken != 0
	for i := 0; i < nsrc; i++ {
		reg := in.Source(i)
		if !reg.Valid() {
			r.err = fmt.Errorf("%w: record %d: source register %d invalid", ErrCorrupt, r.seq, reg)
			return false
		}
		v := r.st.lastVal[reg] + uint64(unzigzag(dec.uvarint()))
		d.SrcVal[i] = v
		r.st.lastVal[reg] = v
	}
	if flags&flagDst != 0 {
		if !in.Rd.Valid() {
			r.err = fmt.Errorf("%w: record %d: destination register %d invalid", ErrCorrupt, r.seq, in.Rd)
			return false
		}
		v := r.st.lastVal[in.Rd] + uint64(unzigzag(dec.uvarint()))
		d.DstVal = v
		r.st.lastVal[in.Rd] = v
	}
	if flags&flagAddr != 0 {
		r.st.lastAdr += uint64(unzigzag(dec.uvarint()))
		d.Addr = r.st.lastAdr
	}
	if dec.err != nil {
		r.err = fmt.Errorf("%w: record %d: %v", ErrCorrupt, r.seq, dec.err)
		return false
	}
	r.st.pc = pc
	r.off = dec.off
	r.left--
	if r.left == 0 && r.off != len(r.block) {
		r.err = fmt.Errorf("%w: %d trailing bytes in block", ErrCorrupt, len(r.block)-r.off)
		return false
	}
	r.seq++
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
