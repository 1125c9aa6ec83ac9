package trace

// Content-addressed trace-store tests: digests identify bytes, invalid
// or corrupt uploads never publish, and stored traces replay
// identically to their source files.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// storeTestTrace encodes a small synthetic trace and returns its bytes.
func storeTestTrace(t *testing.T, n int64) []byte {
	t.Helper()
	prog := buildLoopSum(n)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, prog.Name, prog.Code)
	if err != nil {
		t.Fatal(err)
	}
	src := NewExecutor(prog)
	var d DynInst
	for src.Next(&d) {
		if err := w.Write(&d); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStorePutGetRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := storeTestTrace(t, 5)
	digest, records, err := st.Put(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(digest, DigestPrefix) || records == 0 {
		t.Fatalf("Put returned digest=%q records=%d", digest, records)
	}
	if !st.Has(digest) {
		t.Fatal("Has reports the stored digest missing")
	}
	// Idempotent re-store of identical bytes.
	d2, r2, err := st.Put(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if d2 != digest || r2 != records {
		t.Errorf("re-store changed identity: %q/%d vs %q/%d", d2, r2, digest, records)
	}
	// Stored file replays and matches byte-for-byte.
	p, err := st.Path(digest)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, data) {
		t.Error("stored bytes differ from the upload")
	}
	fr, err := st.Open(digest)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	var dyn DynInst
	n := uint64(0)
	for fr.Next(&dyn) {
		n++
	}
	if err := fr.Err(); err != nil || n != records {
		t.Errorf("replay: %d records err=%v, want %d records", n, err, records)
	}
}

// TestStoreRejectsCorruptUploads: damaged containers must not publish,
// and the failure keeps the trace package's typed classification.
func TestStoreRejectsCorruptUploads(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := storeTestTrace(t, 5)
	cases := []struct {
		name    string
		payload []byte
		wantErr error
	}{
		{"not-a-trace", []byte("plain text, definitely not CVTR"), ErrBadMagic},
		{"truncated", data[:len(data)*2/3], ErrTruncated},
		{"bit-flip", func() []byte {
			b := append([]byte(nil), data...)
			b[len(b)/2] ^= 0x10
			return b
		}(), ErrCorrupt},
		{"empty", nil, ErrBadMagic},
		{"trailing-bytes", append(append([]byte(nil), data...), 0, 0), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := st.Put(bytes.NewReader(tc.payload)); !errors.Is(err, tc.wantErr) {
				t.Errorf("Put error = %v, want %v", err, tc.wantErr)
			}
		})
	}
	// Nothing published, and no temp droppings left behind.
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("store directory not empty after rejected uploads: %v", ents)
	}
}

// TestStoreDigestValidation: malformed digests are rejected before any
// filesystem access (no path traversal through digest strings).
func TestStoreDigestValidation(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{
		"", "sha256:", "sha256:zz", "md5:abcd",
		"sha256:../../etc/passwd",
		"sha256:" + strings.Repeat("a", 63),
	} {
		if _, err := st.Path(d); err == nil {
			t.Errorf("Path(%q) accepted a malformed digest", d)
		}
		if st.Has(d) {
			t.Errorf("Has(%q) = true for a malformed digest", d)
		}
	}
}

// TestStorePutFile stores an on-disk trace written by WriteFile, the
// path clustersim -remote -trace-in uses.
func TestStorePutFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.cvt")
	if err := os.WriteFile(path, storeTestTrace(t, 5), 0o666); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest, records, err := st.PutFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if records == 0 || !st.Has(digest) {
		t.Errorf("PutFile: digest=%q records=%d Has=%v", digest, records, st.Has(digest))
	}
}
