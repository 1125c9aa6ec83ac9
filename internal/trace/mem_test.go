package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"clustervp/internal/isa"
	"clustervp/internal/program"
	"clustervp/internal/trace"
	"clustervp/internal/trace/tracetest"
	"clustervp/internal/workload"
)

func newReader(t *testing.T, data []byte) *trace.Reader {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMemTraceCursorMatchesReader decodes a kernel trace into the
// in-memory form and requires replay to be record-for-record identical
// to the streaming Reader, including from two concurrent cursors.
func TestMemTraceCursorMatchesReader(t *testing.T) {
	data, want := encodeKernel(t, "cjpeg", 1)
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}
	if mt.Name() != "cjpeg" {
		t.Errorf("Name() = %q, want cjpeg", mt.Name())
	}
	if mt.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", mt.Len(), len(want))
	}
	got := collect(t, mt.NewCursor())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cursor replay differs from the streaming Reader")
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := mt.NewCursor()
			var d trace.DynInst
			var n int
			for c.Next(&d) {
				if d.Seq != uint64(n) {
					t.Errorf("record %d: Seq = %d", n, d.Seq)
					return
				}
				n++
			}
			if n != len(want) {
				t.Errorf("concurrent cursor yielded %d records, want %d", n, len(want))
			}
		}()
	}
	wg.Wait()
}

// TestMemTraceCursorZeroAlloc pins the Source contract the in-memory
// form exists for: Next never heap-allocates.
func TestMemTraceCursorZeroAlloc(t *testing.T) {
	data, _ := encodeKernel(t, "cjpeg", 1)
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}
	c := mt.NewCursor()
	var d trace.DynInst
	if avg := testing.AllocsPerRun(2000, func() { c.Next(&d) }); avg != 0 {
		t.Errorf("Cursor.Next allocates %v per call, want 0", avg)
	}
}

// TestMemTraceBudgetFallback: a budget smaller than the decoded trace
// yields ErrNoMemForm (the stream-instead sentinel), not a hard error.
func TestMemTraceBudgetFallback(t *testing.T) {
	data, _ := encodeKernel(t, "cjpeg", 1)
	if _, err := trace.ReadMemCapped(newReader(t, data), 1024); !errors.Is(err, trace.ErrNoMemForm) {
		t.Fatalf("tiny budget: got %v, want ErrNoMemForm", err)
	}
	mt, err := trace.ReadMemCapped(newReader(t, data), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if mt.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive for a non-empty trace")
	}
}

// TestMemTraceLayoutExact pins the load-values-only layout's size on
// every kernel at scale 2: the load column's capacity equals its
// length, SizeBytes is exactly what it holds plus the fixed name and
// code charge, and the suite averages at most 1.2 bytes a record (8 for
// each load value, about one record in eight a load, plus the code).
func TestMemTraceLayoutExact(t *testing.T) {
	var records, bytes int64
	for _, k := range workload.Names() {
		data, want := encodeKernel(t, k, 2)
		mt, err := trace.ReadMem(newReader(t, data))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		held := trace.FixedBytes(mt)
		for _, c := range trace.Columns(mt) {
			if c.Cap != c.Len {
				t.Errorf("%s: column %s holds capacity %d for length %d", k, c.Name, c.Cap, c.Len)
			}
			held += int64(c.Cap * c.ElemBytes)
		}
		if mt.SizeBytes() != held {
			t.Errorf("%s: SizeBytes = %d, the columns hold %d", k, mt.SizeBytes(), held)
		}
		records += int64(len(want))
		bytes += mt.SizeBytes()
	}
	perRecord := float64(bytes) / float64(records)
	t.Logf("%d records, %.2f bytes a record", records, perRecord)
	if perRecord > 1.2 {
		t.Errorf("suite averages %.2f bytes a record, want at most 1.2", perRecord)
	}
}

// TestMemTraceRefusedBeforeAlloc: a budget below the fixed name and
// code charge gets ErrNoMemForm before any record is decoded, having
// allocated less than the load column would hold. A budget one value
// short of the load column gets ErrNoMemForm too: the column grows only
// while the old and the new one fit the budget, so besides what the
// Reader allocates to stream the records, the refusal allocates at
// most twice the budget's room for load values.
func TestMemTraceRefusedBeforeAlloc(t *testing.T) {
	data, _ := encodeKernel(t, "cjpeg", 1)
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}
	fixed := trace.FixedBytes(mt)
	loadColumn := uint64(mt.SizeBytes() - fixed)
	if loadColumn < 8<<10 {
		t.Fatalf("cjpeg holds a %d-byte load column; the test needs a larger one", loadColumn)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	r := newReader(t, data)
	got := allocated(func() { _, err = trace.ReadMemCapped(r, fixed-1) })
	if !errors.Is(err, trace.ErrNoMemForm) {
		t.Fatalf("budget below the fixed charge: got %v, want ErrNoMemForm", err)
	}
	if got >= loadColumn {
		t.Errorf("refusal allocated %d bytes, at least the %d-byte load column", got, loadColumn)
	}
	if r.Count() != 0 {
		t.Errorf("refusal decoded %d records", r.Count())
	}

	r = newReader(t, data)
	var d trace.DynInst
	stream := allocated(func() {
		for r.Next(&d) {
		}
	})
	budget := mt.SizeBytes() - 8
	r = newReader(t, data)
	got = allocated(func() { _, err = trace.ReadMemCapped(r, budget) })
	if !errors.Is(err, trace.ErrNoMemForm) {
		t.Fatalf("budget one value short of the load column: got %v, want ErrNoMemForm", err)
	}
	if limit := stream + 2*uint64(budget-fixed) + 1<<10; got > limit {
		t.Errorf("refusal allocated %d bytes, want at most %d (stream %d + twice the room)", got, limit, stream)
	}
}

// TestMemTraceNeedsEndBlockCount: without a readable record count at
// the end of a random-access input there is no in-memory form, though
// the Reader streams the same bytes; a count that does not match the
// records fails as the Reader fails.
func TestMemTraceNeedsEndBlockCount(t *testing.T) {
	data, want := encodeKernel(t, "rawcaudio", 1)
	noMem := map[string]*trace.Reader{
		"trailing bytes": newReader(t, append(append([]byte(nil), data...), 0, 0)),
	}
	stream, err := trace.NewReader(io.MultiReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	noMem["not random access"] = stream
	for name, r := range noMem {
		if _, err := trace.ReadMem(r); !errors.Is(err, trace.ErrNoMemForm) {
			t.Errorf("%s: got %v, want ErrNoMemForm", name, err)
		}
	}

	// Rewrite the end block to claim one record more.
	var enc [binary.MaxVarintLen64]byte
	tail := 1 + binary.PutUvarint(enc[:], uint64(len(want))) + 4
	claim := binary.AppendUvarint(nil, uint64(len(want)+1))
	doctored := append(append(append([]byte(nil), data[:len(data)-tail]...), 0), claim...)
	doctored = binary.LittleEndian.AppendUint32(doctored, crc32.ChecksumIEEE(claim))
	if _, err := trace.ReadMem(newReader(t, doctored)); !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("end block claiming %d of %d records: got %v, want ErrCorrupt", len(want)+1, len(want), err)
	}
}

// TestMemTraceOffModelStreams: a valid trace with a record that
// re-executing the code does not give has no in-memory form, and the
// refusal names the field that is off. So does a Reader that has
// already yielded a record, whose first record is not record 0.
func TestMemTraceOffModelStreams(t *testing.T) {
	for field, build := range tracetest.OffModel {
		data, err := build()
		if err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		r := newReader(t, data)
		var d trace.DynInst
		for r.Next(&d) {
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: the Reader must decode the seed: %v", field, err)
		}
		_, err = trace.ReadMem(newReader(t, data))
		if !errors.Is(err, trace.ErrNoMemForm) {
			t.Errorf("%s off the model: got %v, want ErrNoMemForm", field, err)
		} else if !strings.Contains(err.Error(), ": "+field+" ") {
			t.Errorf("%s off the model: the refusal %q names another field", field, err)
		}
	}

	data, _ := encodeKernel(t, "rawcaudio", 1)
	r := newReader(t, data)
	var d trace.DynInst
	r.Next(&d)
	if _, err := trace.ReadMem(r); !errors.Is(err, trace.ErrNoMemForm) || !strings.Contains(err.Error(), ": seq ") {
		t.Errorf("a Reader already read from: got %v, want ErrNoMemForm on seq", err)
	}
}

// TestCursorMatchesExecutorEveryOpcode runs a kernel that executes
// every opcode but HALT, with the edge cases of the semantics: DIV, REM
// and FDIV by zero, shifts by 64 or more through a register, LB sign
// extension, JAL/JR and negative immediates. Its trace goes through the
// Writer and ReadMem, and the cursor must replay the Executor's records
// one for one. An opcode the kernel does not execute fails the test, so
// a new opcode needs a line here.
func TestCursorMatchesExecutorEveryOpcode(t *testing.T) {
	b := program.NewBuilder("every-opcode")
	words := b.DataWords([]int64{-5, 0x1234})
	bytesAt := b.DataBytes([]byte{0x80, 0x7f})
	floats := b.DataFloats([]float64{2.5})
	b.Li(isa.R1, 7).Li(isa.R2, -3).Li(isa.R3, 0).Li(isa.R4, 70)
	for _, op := range []isa.Opcode{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLT, isa.SLTU, isa.MUL} {
		b.R(op, isa.R5, isa.R1, isa.R2)
	}
	for _, op := range []isa.Opcode{isa.SLL, isa.SRL, isa.SRA} {
		b.R(op, isa.R5, isa.R2, isa.R4) // shift by 70: the low six bits
	}
	for _, op := range []isa.Opcode{isa.DIV, isa.REM} {
		b.R(op, isa.R5, isa.R2, isa.R1).R(op, isa.R6, isa.R2, isa.R3) // by 7, by zero
	}
	for _, op := range []isa.Opcode{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI} {
		b.I(op, isa.R7, isa.R2, -6)
	}
	for _, op := range []isa.Opcode{isa.SLLI, isa.SRLI, isa.SRAI} {
		b.I(op, isa.R7, isa.R2, 3)
	}
	// Memory, through a base past the data so every offset is negative.
	b.Li(isa.R8, words+64)
	b.Load(isa.LW, isa.R9, isa.R8, -64).Store(isa.SW, isa.R2, isa.R8, -56).Load(isa.LW, isa.R9, isa.R8, -56)
	b.Load(isa.LB, isa.R10, isa.R8, bytesAt-words-64) // 0x80 sign-extends
	b.Store(isa.SB, isa.R1, isa.R8, bytesAt-words-63).Load(isa.LB, isa.R10, isa.R8, bytesAt-words-63)
	b.Load(isa.FLW, isa.F1, isa.R8, floats-words-64).Store(isa.FSW, isa.F1, isa.R8, -48)
	// Floating point, with a zero divisor and a negative operand.
	b.Fli(isa.F2, -1.5).Fli(isa.F3, 0)
	for _, op := range []isa.Opcode{isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV} {
		b.R(op, isa.F4, isa.F1, isa.F2).R(op, isa.F5, isa.F1, isa.F3)
	}
	for _, op := range []isa.Opcode{isa.FNEG, isa.FABS, isa.FMOV} {
		b.R(op, isa.F6, isa.F2, isa.NoReg)
	}
	b.R(isa.CVTIF, isa.F7, isa.R2, isa.NoReg).R(isa.CVTFI, isa.R11, isa.F2, isa.NoReg)
	for _, op := range []isa.Opcode{isa.FLT, isa.FLE, isa.FEQ} {
		b.R(op, isa.R12, isa.F1, isa.F2)
	}
	// Every conditional branch once not taken, then once taken.
	for i, br := range []struct {
		op             isa.Opcode
		na, nb, ta, tb isa.RegID
	}{
		{isa.BEQ, isa.R1, isa.R2, isa.R1, isa.R1}, {isa.BNE, isa.R1, isa.R1, isa.R1, isa.R2},
		{isa.BLT, isa.R1, isa.R2, isa.R2, isa.R1}, {isa.BGE, isa.R2, isa.R1, isa.R1, isa.R2},
		{isa.BLTU, isa.R2, isa.R1, isa.R1, isa.R2}, {isa.BGEU, isa.R1, isa.R2, isa.R2, isa.R1},
	} {
		label := fmt.Sprintf("taken%d", i)
		b.Br(br.op, br.na, br.nb, label).Br(br.op, br.ta, br.tb, label).Nop().Label(label)
	}
	b.Jmp("call").Nop().Label("call").Call("fn")
	b.Li(isa.R13, int64(b.PC()+3)).Jr(isa.R13).Nop() // jumps over the NOP
	b.Halt()
	b.Label("fn").Nop().Ret()
	prog := b.MustBuild()

	want := collect(t, trace.NewExecutor(prog))
	var ran, taken, fell [isa.NumOpcodes]bool
	for _, d := range want {
		ran[d.Inst.Op] = true
		taken[d.Inst.Op] = taken[d.Inst.Op] || d.Taken
		fell[d.Inst.Op] = fell[d.Inst.Op] || !d.Taken
	}
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		switch {
		case !ran[op] && op != isa.HALT:
			t.Errorf("the kernel never executes %v", op)
		case isa.InfoFor(op).IsCondBranch && !(taken[op] && fell[op]):
			t.Errorf("the kernel does not run %v both taken and not taken", op)
		}
	}
	if lb := want[slices.IndexFunc(want, func(d trace.DynInst) bool { return d.Inst.Op == isa.LB })]; lb.DstVal != 0xffffffffffffff80 {
		t.Errorf("LB of 0x80 gives %#x, want it sign-extended", lb.DstVal)
	}

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, prog.Name, prog.Code)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if err := w.Write(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mt, err := trace.ReadMem(newReader(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, mt.NewCursor())
	if len(got) != len(want) {
		t.Fatalf("cursor yields %d records, the Executor %d", len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("record %d: cursor %+v, Executor %+v", i, got[i], want[i])
		}
	}
}

// TestArenaAdmission covers the arena contract: decode-once sharing,
// hard budget admission, duplicate adds, and the stream-instead answer
// for misses.
func TestArenaAdmission(t *testing.T) {
	data, _ := encodeKernel(t, "cjpeg", 1)
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}

	a := trace.NewArena(mt.SizeBytes())
	if got := a.Get("k1"); got != nil {
		t.Fatal("Get on empty arena must miss")
	}
	if !a.Add("k1", mt) {
		t.Fatal("first Add within budget must admit")
	}
	if got := a.Get("k1"); got != mt {
		t.Fatal("Get after Add must return the same MemTrace")
	}
	if !a.Add("k1", mt) {
		t.Error("duplicate Add of a resident key must report resident")
	}
	if a.Add("k2", mt) {
		t.Error("Add past the budget must refuse")
	}
	if a.Remaining() != 0 {
		t.Errorf("Remaining = %d after filling the budget", a.Remaining())
	}
	hits, misses, skipped, used := a.Stats()
	if hits != 1 || misses != 1 || skipped != 1 || used != mt.SizeBytes() {
		t.Errorf("Stats = (%d,%d,%d,%d), want (1,1,1,%d)", hits, misses, skipped, used, mt.SizeBytes())
	}

	// Admitting nothing is a valid configuration (arena disabled).
	off := trace.NewArena(0)
	if off.Add("k", mt) {
		t.Error("zero-budget arena must admit nothing")
	}
}

// TestArenaConcurrentAddGet exercises the admission race: many
// goroutines decode and add the same key while others read it. Run
// under -race this pins the locking discipline.
func TestArenaConcurrentAddGet(t *testing.T) {
	data, _ := encodeKernel(t, "cjpeg", 1)
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}
	a := trace.NewArena(10 * mt.SizeBytes())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if got := a.Get("k"); got == nil {
					a.Add("k", mt)
				} else if got != mt {
					t.Error("arena returned a foreign MemTrace")
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, _, _, used := a.Stats(); used != mt.SizeBytes() {
		t.Errorf("used = %d after racing adds of one key, want %d", used, mt.SizeBytes())
	}
}
