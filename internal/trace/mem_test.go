package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

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
// columnar form and requires replay to be record-for-record identical
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

// TestMemTraceCursorZeroAlloc pins the Source contract the columnar
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

// TestMemTraceLayoutExact pins the compact layout's size on every
// kernel at scale 2: each column's capacity equals its length,
// SizeBytes is exactly what the columns hold plus the fixed name and
// code charge, and the suite averages at most 13 bytes a record (4 for
// the PC, 1/8 for the taken bit, 8 for each destination or address
// value, about one a record).
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
	if perRecord > 13 {
		t.Errorf("suite averages %.2f bytes a record, want at most 13", perRecord)
	}
}

// TestMemTraceRefusedBeforeAlloc: a budget the end block's record count
// alone exceeds gets ErrNoMemForm before any column is allocated.
func TestMemTraceRefusedBeforeAlloc(t *testing.T) {
	data, want := encodeKernel(t, "cjpeg", 1)
	pcColumn := uint64(4 * len(want))
	r := newReader(t, data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := trace.ReadMemCapped(r, int64(pcColumn))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, trace.ErrNoMemForm) {
		t.Fatalf("budget below the pc column: got %v, want ErrNoMemForm", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= pcColumn {
		t.Errorf("refusal allocated %d bytes, at least the %d-byte pc column", got, pcColumn)
	}
	if r.Count() != 0 {
		t.Errorf("refusal decoded %d records", r.Count())
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

// TestMemTraceOffModelStreams: a valid trace that breaks either fact
// the cursor rebuilds has no in-memory form; the unedited prefix does.
func TestMemTraceOffModelStreams(t *testing.T) {
	for name, build := range map[string]func() ([]byte, error){
		"source value": tracetest.SourceOffModel,
		"next pc":      tracetest.PCOffModel,
	} {
		data, err := build()
		if err != nil {
			t.Fatal(err)
		}
		r := newReader(t, data)
		var d trace.DynInst
		for r.Next(&d) {
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: the Reader must decode the seed: %v", name, err)
		}
		if _, err := trace.ReadMem(newReader(t, data)); !errors.Is(err, trace.ErrNoMemForm) {
			t.Errorf("%s off the model: got %v, want ErrNoMemForm", name, err)
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
