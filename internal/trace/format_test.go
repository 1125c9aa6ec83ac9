package trace_test

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"clustervp/internal/isa"
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
	prog := k.Build(scale)
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
	prog := k.Build(1)
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
	want := collect(t, trace.NewExecutor(k.Build(1)))
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

// TestTeeRecordsWhileStreaming checks that Tee passes records through
// unchanged while producing a decodable copy.
func TestTeeRecordsWhileStreaming(t *testing.T) {
	k, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.Build(1)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, prog.Name, prog.Code)
	if err != nil {
		t.Fatal(err)
	}
	through := collect(t, trace.Tee(trace.NewExecutor(prog), w))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed := collect(t, r)
	if len(replayed) != len(through) {
		t.Fatalf("tee wrote %d records, passed through %d", len(replayed), len(through))
	}
	for i := range through {
		if replayed[i] != through[i] {
			t.Fatalf("record %d differs between tee copy and pass-through", i)
		}
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
		{"truncated-header", func(b []byte) []byte { return b[:8] }, []error{trace.ErrTruncated, trace.ErrCorrupt}},
		{"truncated-mid", func(b []byte) []byte { return b[:len(b)/2] }, []error{trace.ErrTruncated, trace.ErrCorrupt}},
		{"no-trailer", func(b []byte) []byte { return b[:len(b)-5] }, []error{trace.ErrTruncated, trace.ErrCorrupt}},
		{"flipped-payload", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, []error{trace.ErrCorrupt, trace.ErrTruncated}},
		{"flipped-crc", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, []error{trace.ErrCorrupt}},
		{"trailing-byte", func(b []byte) []byte { return append(b, 0) }, []error{trace.ErrCorrupt}},
		{"trailing-trace", func(b []byte) []byte { return append(b, data...) }, []error{trace.ErrCorrupt}},
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
