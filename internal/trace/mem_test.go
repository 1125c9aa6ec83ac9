package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"clustervp/internal/isa"
	"clustervp/internal/program"
	"clustervp/internal/trace"
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

// TestMemTraceLayoutExact pins the load-column layout's size on every
// kernel at scale 2: the column's capacity equals its length, SizeBytes
// is exactly what it holds plus the fixed name and code charge, and the
// suite averages at most 0.5 bytes a record both in memory and on disk
// (a byte or two for each load's per-PC delta, about one record in
// eight a load, plus the code).
func TestMemTraceLayoutExact(t *testing.T) {
	var records, bytes, disk int64
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
		disk += int64(len(data))
	}
	perRecord, onDisk := float64(bytes)/float64(records), float64(disk)/float64(records)
	t.Logf("%d records, %.3f bytes a record in memory, %.3f on disk", records, perRecord, onDisk)
	if perRecord > 0.5 || onDisk > 0.5 {
		t.Errorf("suite averages %.3f bytes a record in memory and %.3f on disk, want at most 0.5", perRecord, onDisk)
	}
}

// TestMemTraceRefusedBeforeAlloc: a budget below the fixed name and
// code charge gets ErrNoMemForm before any record is decoded, having
// allocated less than the load column would hold. A budget one byte
// short of the load column gets ErrNoMemForm too: the column grows only
// while the old and the new one fit the budget, so besides what the
// Reader allocates to stream the records, the refusal allocates at
// most twice the budget's room for the column.
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
	budget := mt.SizeBytes() - 1
	r = newReader(t, data)
	got = allocated(func() { _, err = trace.ReadMemCapped(r, budget) })
	if !errors.Is(err, trace.ErrNoMemForm) {
		t.Fatalf("budget one byte short of the load column: got %v, want ErrNoMemForm", err)
	}
	if limit := stream + 2*uint64(budget-fixed) + 1<<10; got > limit {
		t.Errorf("refusal allocated %d bytes, want at most %d (stream %d + twice the room)", got, limit, stream)
	}
}

// TestMemTraceNeedsEndBlockCount: the end block's record count is
// checked. A random-access input whose count passes the record cap is
// refused by NewReader, before any record is re-executed, and so by
// Store.Put; a count that does not match the records, or bytes after
// the end block, fail ReadMem as they fail the Reader. The in-memory
// form does not need the count before decoding: a Reader over an input
// that is not random access gives the same MemTrace. A Reader already
// read from has lost its first block and gives none.
func TestMemTraceNeedsEndBlockCount(t *testing.T) {
	data, want := encodeKernel(t, "rawcaudio", 1)
	var enc [binary.MaxVarintLen64]byte
	tail := 1 + binary.PutUvarint(enc[:], uint64(len(want))) + 4
	claiming := func(n uint64) []byte {
		claim := binary.AppendUvarint(nil, n)
		doctored := append(append(append([]byte(nil), data[:len(data)-tail]...), 0), claim...)
		return binary.LittleEndian.AppendUint32(doctored, crc32.ChecksumIEEE(claim))
	}
	for name, bad := range map[string][]byte{
		"trailing bytes":  append(append([]byte(nil), data...), 0, 0),
		"one record more": claiming(uint64(len(want) + 1)),
	} {
		if _, err := trace.ReadMem(newReader(t, bad)); !errors.Is(err, trace.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}

	over := claiming(trace.MaxRecords + 1)
	if _, err := trace.NewReader(bytes.NewReader(over)); !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("end block claiming %d records: got %v, want ErrCorrupt", trace.MaxRecords+1, err)
	}
	st, err := trace.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put(bytes.NewReader(over)); !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("Put of a claim over the cap: got %v, want ErrCorrupt", err)
	}

	stream, err := trace.NewReader(io.MultiReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	mt, err := trace.ReadMem(stream)
	if err != nil {
		t.Fatalf("not random access: %v", err)
	}
	if got := collect(t, mt.NewCursor()); !reflect.DeepEqual(got, want) {
		t.Error("not random access: the cursor's records differ from the Executor's")
	}

	r := newReader(t, data)
	var d trace.DynInst
	r.Next(&d)
	if _, err := trace.ReadMem(r); err == nil {
		t.Error("ReadMem of a Reader already read from succeeded")
	}
}

// TestUnexecutableTracesAreCorrupt: a container whose every CRC holds
// but whose records cannot be re-executed from its code and load column
// fails with ErrCorrupt wherever it is read: streamed by the Reader
// from a random-access input or not, decoded by ReadMem, and uploaded
// to a Store, which publishes nothing.
func TestUnexecutableTracesAreCorrupt(t *testing.T) {
	st, err := trace.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	drain := func(src io.Reader) error {
		r, err := trace.NewReader(src)
		if err != nil {
			return err
		}
		var d trace.DynInst
		for r.Next(&d) {
		}
		return r.Err()
	}
	for _, u := range unexecutable {
		readMem := func() error {
			r, err := trace.NewReader(bytes.NewReader(u.data))
			if err == nil {
				_, err = trace.ReadMem(r)
			}
			return err
		}
		_, _, putErr := st.Put(bytes.NewReader(u.data))
		for how, err := range map[string]error{
			"Reader":        drain(bytes.NewReader(u.data)),
			"stream Reader": drain(io.MultiReader(bytes.NewReader(u.data))),
			"ReadMem":       readMem(),
			"Store.Put":     putErr,
		} {
			if !errors.Is(err, trace.ErrCorrupt) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt", u.name, how, err)
			}
		}
	}
	if ents, err := os.ReadDir(st.Dir()); err != nil || len(ents) != 0 {
		t.Errorf("the store holds %d entries after refused uploads (%v)", len(ents), err)
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
