package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"clustervp/internal/isa"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

var (
	// spin is a loop with no loads: a block of any number of its
	// records holds no column bytes.
	spin = []isa.Inst{{Op: isa.J, Target: 0}}
	// loadLoop loads address 0 at pc 0, then jumps back to it.
	loadLoop = []isa.Inst{{Op: isa.LW, Rd: isa.R1}, {Op: isa.J, Target: 0}}
)

// unexecutable lists containers whose every CRC holds but whose records
// cannot be re-executed from their code and column. The Reader and
// ReadMem must both refuse each with ErrCorrupt.
var unexecutable = []struct {
	name string
	data []byte
}{
	{"pc outside the code", trace.Container(spin, 1, []trace.Block{{1, nil}}, 1)},
	{"halt", trace.Container([]isa.Inst{{Op: isa.HALT}}, 0, []trace.Block{{1, nil}}, 1)},
	{"column exhausted", trace.Container(loadLoop, 0, []trace.Block{{3, []byte{2}}}, 3)},
	{"column bytes left over", trace.Container(loadLoop, 0, []trace.Block{{2, []byte{2, 4}}}, 2)},
	{"loads across a block boundary", trace.Container(loadLoop, 0, []trace.Block{{1, []byte{2, 4}}, {2, nil}}, 3)},
	{"bad varint", trace.Container(loadLoop, 0, []trace.Block{{1, bytes.Repeat([]byte{0xff}, 11)}}, 1)},
	{"count differs from the end block", trace.Container(spin, 0, []trace.Block{{5, nil}}, 4)},
	{"claim over the record cap", trace.Container(spin, 0, []trace.Block{{5, nil}}, 1<<60)},
	{"block past the Writer's block size", trace.Container(spin, 0, []trace.Block{{1 << 16, nil}}, 1<<16)},
}

// FuzzTraceReader throws arbitrary bytes at the .cvt decoder and
// requires it to either decode records or fail with one of the typed
// errors — never panic, never loop forever, never allocate in
// proportion to an attacker-controlled length field or record count.
// A version 1 file must get ErrVersion. It is also a differential test
// of the in-memory form: ReadMem on the same bytes must fail exactly
// when the Reader does, and otherwise yield a MemTrace whose cursor
// replays the Reader's records one for one. Run it with
//
//	go test -fuzz=FuzzTraceReader ./internal/trace
//
// The seed corpus in testdata/fuzz/FuzzTraceReader holds hand-made
// version 2 containers and a version 1 file. The seeds added below are
// a kernel prefix, its truncations and bit flips, and the containers
// that cannot be re-executed (unexecutable): a PC outside the code, a
// HALT, a column too short or too long, and record counts the end block
// contradicts or that pass the cap.
func FuzzTraceReader(f *testing.F) {
	k, err := workload.ByName("rawcaudio")
	if err != nil {
		f.Fatal(err)
	}
	prog := k.Build(1, 0)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, prog.Name, prog.Code)
	if err != nil {
		f.Fatal(err)
	}
	exec := trace.NewExecutor(prog)
	var d trace.DynInst
	for i := 0; i < 2000 && exec.Next(&d); i++ {
		if err := w.Write(&d); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:5]) // magic+version only
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("CVTR\x01")) // version 1
	f.Add([]byte("CVTR\x63")) // future version
	f.Add([]byte("not a trace at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-12] ^= 0x20
	f.Add(flipped)
	// Bytes after the end block: the Reader must reject them, or the
	// same records would be stored under a second digest.
	f.Add(append(append([]byte(nil), valid...), 0))
	// A huge declared header length with no data behind it: the decoder
	// must reject it by limit, not allocate it.
	f.Add([]byte{'C', 'V', 'T', 'R', 2, 0xff, 0xff, 0xff, 0xff, 0x7f})
	for _, u := range unexecutable {
		f.Add(u.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if bytes.HasPrefix(data, []byte("CVTR\x01")) && !errors.Is(err, trace.ErrVersion) {
			t.Fatalf("a version 1 file: got %v, want ErrVersion", err)
		}
		if err != nil {
			requireTyped(t, err)
			return
		}
		mt, memErr := trace.ReadMem(newReader(t, data))
		var c *trace.Cursor
		if memErr == nil {
			c = mt.NewCursor()
		}
		var d, e trace.DynInst
		for n := uint64(0); r.Next(&d); n++ {
			// Every decoded record must be internally consistent enough
			// for the timing core to consume blindly.
			if d.PC < 0 || d.PC >= len(r.Code()) {
				t.Fatalf("record %d: pc %d outside decoded code", n, d.PC)
			}
			if d.Seq != n {
				t.Fatalf("record %d: seq %d", n, d.Seq)
			}
			if c != nil && (!c.Next(&e) || !sameRecord(e, d)) {
				t.Fatalf("record %d: cursor yields %+v, Reader %+v", n, e, d)
			}
		}
		readErr := r.Err()
		if (readErr == nil) != (memErr == nil) {
			t.Fatalf("the Reader ends with %v, ReadMem with %v", readErr, memErr)
		}
		if readErr != nil {
			requireTyped(t, readErr)
			requireTyped(t, memErr)
			return
		}
		if c.Next(&e) {
			t.Fatalf("cursor yields more than the Reader's %d records", r.Count())
		}
	})
}

// sameRecord reports whether two records are bit-for-bit equal. A
// fuzzed header can hold a NaN immediate, which == would call unequal
// to itself, so FImm compares by its bits.
func sameRecord(a, b trace.DynInst) bool {
	if math.Float64bits(a.Inst.FImm) != math.Float64bits(b.Inst.FImm) {
		return false
	}
	a.Inst.FImm, b.Inst.FImm = 0, 0
	return a == b
}

// requireTyped fails the fuzz run when a decode error is not one of the
// exported sentinel types.
func requireTyped(t *testing.T, err error) {
	t.Helper()
	for _, want := range []error{trace.ErrBadMagic, trace.ErrVersion, trace.ErrCorrupt, trace.ErrTruncated} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("untyped decode error: %v", err)
}

// memOpSize is the encoded size of one FuzzMemory operation: a kind
// byte (mod 4: Load8, Store8, Load64, Store64), then the address and
// the store value as little-endian uint64s.
const memOpSize = 17

// FuzzMemory checks the demand-grown Memory against a dense 16 MiB
// reference image with the same wrap (addr & (MemSize-1)) and top clamp
// (an 8-byte access ends at MemSize): every load must agree. dataLen
// sizes the program data image, a fixed non-zero pattern; ops is a
// sequence of memOpSize-byte operations. Run it with
//
//	go test -fuzz=FuzzMemory ./internal/trace
//
// The seed corpus in testdata/fuzz/FuzzMemory covers address 0; the
// bytes one below, at and one above the initial image end; unaligned
// words straddling that end, over a zero and over a full data image;
// every address from MemSize-8 to MemSize-1; and MemSize+8, which
// wraps to 8.
func FuzzMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, dataLen uint32, ops []byte) {
		data := make([]byte, dataLen%(300<<10))
		for i := range data {
			data[i] = byte(i*7 + 1)
		}
		m := trace.NewMemory(data)
		ref := make([]byte, trace.MemSize)
		copy(ref, data)
		word := func(addr uint64) []byte {
			a := addr & (trace.MemSize - 1)
			if a+8 > trace.MemSize {
				a = trace.MemSize - 8
			}
			return ref[a : a+8]
		}
		for ; len(ops) >= memOpSize; ops = ops[memOpSize:] {
			addr := binary.LittleEndian.Uint64(ops[1:])
			v := binary.LittleEndian.Uint64(ops[9:])
			switch ops[0] % 4 {
			case 0:
				if got, want := m.Load8(addr), ref[addr&(trace.MemSize-1)]; got != want {
					t.Fatalf("Load8(%#x) = %#x, reference %#x", addr, got, want)
				}
			case 1:
				m.Store8(addr, byte(v))
				ref[addr&(trace.MemSize-1)] = byte(v)
			case 2:
				if got, want := m.Load64(addr), binary.LittleEndian.Uint64(word(addr)); got != want {
					t.Fatalf("Load64(%#x) = %#x, reference %#x", addr, got, want)
				}
			case 3:
				m.Store64(addr, v)
				binary.LittleEndian.PutUint64(word(addr), v)
			}
		}
	})
}
