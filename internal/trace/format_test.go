package trace_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"syscall"
	"testing"

	"clustervp/internal/isa"
	"clustervp/internal/program"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// collect drains a Source into a slice.
func collect(t *testing.T, src trace.Source) []trace.DynInst {
	t.Helper()
	var out []trace.DynInst
	var d trace.DynInst
	for src.Next(&d) {
		out = append(out, d)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// encodeKernel runs a kernel functionally and encodes its trace,
// returning the container bytes and the records that went in.
func encodeKernel(t *testing.T, kernel string, scale int) ([]byte, []trace.DynInst) {
	t.Helper()
	k, err := workload.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	prog := k.Build(scale, 0)
	want := collect(t, trace.NewExecutor(prog))

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
	return buf.Bytes(), want
}

// TestRoundTripExact encodes and decodes a kernel trace and requires
// every record to come back bit-identical, in order.
func TestRoundTripExact(t *testing.T) {
	for _, kernel := range []string{"cjpeg", "gsmdec", "mesaosdemo"} {
		data, want := encodeKernel(t, kernel, 1)
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		if r.Name() == "" {
			t.Errorf("%s: empty trace name", kernel)
		}
		got := collect(t, r)
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d records, want %d", kernel, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", kernel, i, got[i], want[i])
			}
		}
		if r.Count() != uint64(len(want)) {
			t.Errorf("%s: Count() = %d, want %d", kernel, r.Count(), len(want))
		}
		t.Logf("%s: %d records in %d bytes (%.2f B/record)",
			kernel, len(want), len(data), float64(len(data))/float64(len(want)))
	}
}

// TestCompressionDensity pins the point of the delta encoding: the
// container must stay well under the in-memory record size (a DynInst
// is ~80 bytes; the format should average a small fraction of that).
func TestCompressionDensity(t *testing.T) {
	data, want := encodeKernel(t, "gsmdec", 1)
	perRecord := float64(len(data)) / float64(len(want))
	if perRecord > 16 {
		t.Errorf("encoding density regressed: %.2f bytes/record (want <= 16)", perRecord)
	}
}

// TestWriteFileOpenFile exercises the file-level path, including the
// atomic-rename contract.
func TestWriteFileOpenFile(t *testing.T) {
	k, err := workload.ByName("epicdec")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.Build(1, 0)
	path := filepath.Join(t.TempDir(), "epicdec.cvt")
	n, err := trace.WriteFile(path, prog.Name, prog.Code, trace.NewExecutor(prog))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("wrote zero records")
	}
	fr, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if fr.Name() != prog.Name {
		t.Errorf("trace name %q, want %q", fr.Name(), prog.Name)
	}
	got := collect(t, fr)
	want := collect(t, trace.NewExecutor(k.Build(1, 0)))
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	// No temp droppings left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("expected only the trace file in the temp dir, found %d entries", len(ents))
	}
}

// TestWriteFileFailureLeavesNothing: a WriteFile whose records cannot
// be written (here, records of one kernel against another's code)
// returns the Writer's error and publishes nothing, temp file included.
func TestWriteFileFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	enc, err := workload.Build("epicdec", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := workload.Build("rawcaudio", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "x.cvt")
	if _, err := trace.WriteFile(path, enc.Name, enc.Code, trace.NewExecutor(other)); !errors.Is(err, trace.ErrOffModel) {
		t.Fatalf("WriteFile error %v, want ErrOffModel", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("a failed WriteFile left %v behind", ents)
	}
}

// TestTruncationAndCorruptionAreTyped damages a valid container in
// representative ways and requires a typed error every time — never a
// panic, never a silent success.
func TestTruncationAndCorruptionAreTyped(t *testing.T) {
	data, _ := encodeKernel(t, "g721enc", 1)

	decode := func(b []byte) error {
		r, err := trace.NewReader(bytes.NewReader(b))
		if err != nil {
			return err
		}
		var d trace.DynInst
		for r.Next(&d) {
		}
		return r.Err()
	}

	if err := decode(data); err != nil {
		t.Fatalf("pristine trace failed to decode: %v", err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   []error
	}{
		{"empty", func(b []byte) []byte { return nil }, []error{trace.ErrBadMagic}},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, []error{trace.ErrBadMagic}},
		{"bad-version", func(b []byte) []byte { b[4] = 99; return b }, []error{trace.ErrVersion}},
		{"version-1", func(b []byte) []byte { b[4] = 1; return b }, []error{trace.ErrVersion}},
		{"truncated-header", func(b []byte) []byte { return b[:8] }, []error{trace.ErrTruncated, trace.ErrCorrupt}},
		{"truncated-mid", func(b []byte) []byte { return b[:len(b)/2] }, []error{trace.ErrTruncated, trace.ErrCorrupt}},
		{"no-trailer", func(b []byte) []byte { return b[:len(b)-5] }, []error{trace.ErrTruncated, trace.ErrCorrupt}},
		{"flipped-payload", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, []error{trace.ErrCorrupt, trace.ErrTruncated}},
		{"flipped-crc", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, []error{trace.ErrCorrupt}},
		{"trailing-byte", func(b []byte) []byte { return append(b, 0) }, []error{trace.ErrCorrupt}},
		{"trailing-trace", func(b []byte) []byte { return append(b, data...) }, []error{trace.ErrCorrupt}},
		// 32 KB claiming 2^28 records in blocks past the Writer's size.
		{"oversized-blocks", func([]byte) []byte { return trace.FloodUpload() }, []error{trace.ErrCorrupt}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := append([]byte(nil), data...)
			err := decode(tc.mutate(cp))
			if err == nil {
				t.Fatal("damaged trace decoded without error")
			}
			for _, w := range tc.want {
				if errors.Is(err, w) {
					return
				}
			}
			t.Errorf("error %v is not one of the expected types %v", err, tc.want)
		})
	}
}

// failingReader yields its data, then fails the way a file read does.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestReadErrorsKeepTheirCause: a read that fails mid-trace reports
// ErrTruncated and still wraps the I/O error, so a caller can tell a
// failing disk from a short file.
func TestReadErrorsKeepTheirCause(t *testing.T) {
	data, _ := encodeKernel(t, "rawcaudio", 1)
	eio := &fs.PathError{Op: "read", Path: "x.cvt", Err: syscall.EIO}
	r, err := trace.NewReader(&failingReader{data: data[:len(data)/2], err: eio})
	if err != nil {
		t.Fatal(err)
	}
	var d trace.DynInst
	for r.Next(&d) {
	}
	var pe *fs.PathError
	if err := r.Err(); !errors.Is(err, trace.ErrTruncated) || !errors.As(err, &pe) {
		t.Fatalf("read failure decoded as %v, want ErrTruncated wrapping the *fs.PathError", err)
	}
}

// TestLargeCodeHeaderRoundTrips pins the writer/reader limit symmetry:
// any program NewWriter accepts, NewReader must accept back, including
// static code whose encoded header far exceeds one record block's
// payload cap (a 200k-instruction header is several megabytes).
func TestLargeCodeHeaderRoundTrips(t *testing.T) {
	code := make([]isa.Inst, 200_000)
	for i := range code {
		code[i] = isa.Inst{Op: isa.LI, Rd: isa.R5, Imm: int64(i) * 1_000_003}
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, "huge", code)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reader rejected a header the writer produced: %v", err)
	}
	if len(r.Code()) != len(code) {
		t.Fatalf("decoded %d instructions, want %d", len(r.Code()), len(code))
	}
	var d trace.DynInst
	if r.Next(&d) {
		t.Fatal("empty trace yielded a record")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// goldenKernel loads three words at one PC in a loop, so its trace
// codes the per-PC delta of a repeated load: 5, then +2, then -4.
func goldenKernel() *program.Program {
	b := program.NewBuilder("golden")
	words := b.DataWords([]int64{5, 7, 3})
	b.Li(isa.R1, words).Li(isa.R2, 3)
	b.Label("loop").Load(isa.LW, isa.R3, isa.R1, 0)
	b.I(isa.ADDI, isa.R1, isa.R1, 8).I(isa.ADDI, isa.R2, isa.R2, -1)
	b.Br(isa.BNE, isa.R2, isa.R0, "loop").Halt()
	return b.MustBuild()
}

// goldenCVT is goldenKernel's trace in format version 2: magic and
// version; the header (name, 7 instructions, entry PC 0) and its CRC;
// one block of 14 records whose column is the zigzag deltas 10, 4, 7;
// the end block. A change to these bytes is a format change: it needs
// a new Version.
const goldenCVT = "" +
	"43565452" + "02" + // magic, version
	"3a" + "06676f6c64656e" + "07" + // header length, name, code length
	"13" + "010000" + "00" + "00" + "00" + // li r1, 0 (op, rd ra rb, imm, fimm, target)
	"13" + "020000" + "06" + "00" + "00" + // li r2, 3
	"17" + "030100" + "00" + "00" + "00" + // lw r3, 0(r1)
	"0b" + "010100" + "10" + "00" + "00" + // addi r1, r1, 8
	"0b" + "020200" + "01" + "00" + "00" + // addi r2, r2, -1
	"1e" + "000200" + "00" + "00" + "04" + // bne r2, r0, 2
	"33" + "000000" + "00" + "00" + "00" + // halt
	"00" + "c2e8fdd1" + // entry pc, header CRC
	"0e" + "03" + "0a0407" + "630cde08" + // 14 records, 3 column bytes, CRC
	"00" + "0e" + "8ac2ba35" // end block: 14 records, CRC

// TestFormatGolden pins the exact encoding of a tiny kernel's trace and
// requires the Reader and ReadMem to give the Executor's records back
// from those bytes.
func TestFormatGolden(t *testing.T) {
	prog := goldenKernel()
	want := collect(t, trace.NewExecutor(prog))
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
	if got := hex.EncodeToString(buf.Bytes()); got != goldenCVT {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, goldenCVT)
	}
	data, err := hex.DecodeString(goldenCVT)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, newReader(t, data)); !reflect.DeepEqual(got, want) {
		t.Error("the Reader's records differ from the Executor's")
	}
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, mt.NewCursor()); !reflect.DeepEqual(got, want) {
		t.Error("the cursor's records differ from the Executor's")
	}
}

// TestWriterRefusesOffModelRecords: the format stores only what
// executing the code cannot give, so the Writer refuses with
// ErrOffModel any record that differs from re-executing the code in one
// field, accepting every record before it, and stays refused.
func TestWriterRefusesOffModelRecords(t *testing.T) {
	k, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.Build(1, 0)
	recs := collect(t, trace.NewExecutor(prog))[:2000]
	edits := []struct {
		field string
		edit  func(d *trace.DynInst) bool
	}{
		{"seq", func(d *trace.DynInst) bool { d.Seq++; return true }},
		{"pc", func(d *trace.DynInst) bool { d.PC++; d.Inst = prog.Code[d.PC]; return true }},
		{"instruction", func(d *trace.DynInst) bool { d.Inst.Imm++; return true }},
		{"source values", func(d *trace.DynInst) bool {
			if d.Info().NumSrc == 0 {
				return false
			}
			d.SrcVal[0]++
			return true
		}},
		{"unused source slot", func(d *trace.DynInst) bool {
			if d.Info().NumSrc != 1 {
				return false
			}
			d.SrcVal[1] = 1
			return true
		}},
		{"next pc", func(d *trace.DynInst) bool { d.NextPC++; return true }},
		{"taken", func(d *trace.DynInst) bool {
			if !d.Info().IsCondBranch {
				return false
			}
			d.Taken = !d.Taken
			return true
		}},
		{"address", func(d *trace.DynInst) bool {
			if info := d.Info(); !info.IsLoad && !info.IsStore {
				return false
			}
			d.Addr += 8
			return true
		}},
		{"destination", func(d *trace.DynInst) bool {
			if info := d.Info(); !info.HasDest || info.IsLoad {
				return false
			}
			d.DstVal++
			return true
		}},
	}
	for _, e := range edits {
		w, err := trace.NewWriter(io.Discard, prog.Name, prog.Code)
		if err != nil {
			t.Fatal(err)
		}
		at := -1
		for i := range recs {
			d := recs[i]
			if at < 0 && i >= len(recs)/2 && e.edit(&d) {
				at = i
			}
			err := w.Write(&d)
			if (err != nil) != (i >= at && at >= 0) {
				t.Fatalf("%s edited at record %d: record %d: Write = %v", e.field, at, i, err)
			}
			if err != nil && !errors.Is(err, trace.ErrOffModel) {
				t.Fatalf("%s: got %v, want ErrOffModel", e.field, err)
			}
		}
		if at < 0 {
			t.Fatalf("%s: no record to edit", e.field)
		}
		if err := w.Close(); !errors.Is(err, trace.ErrOffModel) {
			t.Errorf("%s: Close after a refusal = %v, want ErrOffModel", e.field, err)
		}
	}

	// A first record outside the code, or one the code cannot execute,
	// is refused before the header is written.
	halt := slices.IndexFunc(prog.Code, func(in isa.Inst) bool { return in.Op == isa.HALT })
	for name, d := range map[string]trace.DynInst{
		"pc outside the code": {PC: len(prog.Code)},
		"halt":                {PC: halt, Inst: prog.Code[halt], NextPC: halt + 1},
	} {
		var out bytes.Buffer
		w, err := trace.NewWriter(&out, prog.Name, prog.Code)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(&d); !errors.Is(err, trace.ErrOffModel) || out.Len() != 0 {
			t.Errorf("%s: Write = %v with %d bytes written, want ErrOffModel and none", name, err, out.Len())
		}
	}
}
