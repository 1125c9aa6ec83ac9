package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"clustervp/internal/trace"
	"clustervp/internal/trace/tracetest"
	"clustervp/internal/workload"
)

// FuzzTraceReader throws arbitrary bytes at the .cvt decoder and
// requires it to either decode records or fail with one of the typed
// errors — never panic, never loop forever, never allocate in
// proportion to an attacker-controlled length field. It is also a
// differential test of the in-memory form: whenever the Reader decodes
// an input without error, ReadMem on the same bytes either answers
// ErrNoMemForm or yields a MemTrace whose cursor replays exactly the
// Reader's records. Run it with
//
//	go test -fuzz=FuzzTraceReader ./internal/trace
//
// The seed corpus in testdata/fuzz/FuzzTraceReader covers the
// structured cases mutation starts from: a pristine small trace, a
// header-only file, truncations, and bit flips in each region. The
// seeds added below add the valid traces the in-memory form must
// refuse, each off the re-executed record in one field
// (tracetest.OffModel).
func FuzzTraceReader(f *testing.F) {
	k, err := workload.ByName("rawcaudio")
	if err != nil {
		f.Fatal(err)
	}
	prog := k.Build(1)
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
	f.Add([]byte("CVTR\x01"))
	f.Add([]byte("CVTR\x63")) // future version
	f.Add([]byte("not a trace at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	// Bytes after the end block: the Reader must reject them, or the
	// same records would be stored under a second digest.
	f.Add(append(append([]byte(nil), valid...), 0))
	// A huge declared header length with no data behind it: the decoder
	// must reject it by limit, not allocate it.
	f.Add([]byte{'C', 'V', 'T', 'R', 1, 0xff, 0xff, 0xff, 0xff, 0x7f})
	for _, off := range tracetest.OffModel {
		data, err := off()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			requireTyped(t, err)
			return
		}
		var recs []trace.DynInst
		var d trace.DynInst
		for r.Next(&d) {
			// Every decoded record must be internally consistent enough
			// for the timing core to consume blindly.
			if d.PC < 0 || d.PC >= len(r.Code()) {
				t.Fatalf("record %d: pc %d outside decoded code", len(recs), d.PC)
			}
			if d.Seq != uint64(len(recs)) {
				t.Fatalf("record %d: seq %d", len(recs), d.Seq)
			}
			recs = append(recs, d)
		}
		if err := r.Err(); err != nil {
			requireTyped(t, err)
			return
		}
		mt, err := trace.ReadMem(newReader(t, data))
		if errors.Is(err, trace.ErrNoMemForm) {
			return
		}
		if err != nil {
			t.Fatalf("Reader decodes the input, ReadMem fails: %v", err)
		}
		c := mt.NewCursor()
		for i := range recs {
			if !c.Next(&d) {
				t.Fatalf("cursor ends after %d records, Reader yields %d", i, len(recs))
			}
			if !sameRecord(d, recs[i]) {
				t.Fatalf("record %d: cursor yields %+v, Reader %+v", i, d, recs[i])
			}
		}
		if c.Next(&d) {
			t.Fatalf("cursor yields more than the Reader's %d records", len(recs))
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
