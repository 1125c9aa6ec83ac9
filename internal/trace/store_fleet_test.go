package trace

// Fleet-mode guarantees of the trace store: replicas sharing one data
// directory publish concurrently without torn files (temp+rename, so a
// reader sees a whole trace or none), and ParseDigest is the single
// gate every digest passes before touching the filesystem.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestStoreConcurrentPublishTwoReplicas: two Stores over the same
// directory — two clusterd replicas sharing a data dir — repeatedly
// store the same trace set at once. Content addressing makes every
// interleaving converge: one file per distinct trace, every byte
// intact, no temp droppings. Run under -race in CI.
func TestStoreConcurrentPublishTwoReplicas(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	traces := make([][]byte, 4)
	digests := make([]string, len(traces))
	for i := range traces {
		traces[i] = storeTestTrace(t, int64(3+i))
		sum := sha256.Sum256(traces[i])
		digests[i] = DigestPrefix + hex.EncodeToString(sum[:])
	}

	const rounds = 10
	var wg sync.WaitGroup
	for _, st := range []*Store{s1, s2} {
		for i, data := range traces {
			wg.Add(1)
			go func(st *Store, want string, data []byte) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					digest, records, err := st.Put(bytes.NewReader(data))
					if err != nil {
						t.Errorf("concurrent Put: %v", err)
						return
					}
					if digest != want || records == 0 {
						t.Errorf("concurrent Put returned %q/%d, want %q", digest, records, want)
						return
					}
				}
			}(st, digests[i], data)
		}
	}
	wg.Wait()

	// Both handles resolve every digest, the published bytes are exactly
	// the upload, and each file still replays end to end.
	for i, digest := range digests {
		for _, st := range []*Store{s1, s2} {
			if !st.Has(digest) {
				t.Fatalf("store lost %s after concurrent publish", digest)
			}
		}
		p, err := s1.Path(digest)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, traces[i]) {
			t.Errorf("%s: stored bytes differ from the upload", digest)
		}
		fr, err := s2.Open(digest)
		if err != nil {
			t.Fatal(err)
		}
		var d DynInst
		for fr.Next(&d) {
		}
		if err := fr.Err(); err != nil {
			t.Errorf("%s does not replay after concurrent publish: %v", digest, err)
		}
		fr.Close()
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(traces) {
		t.Errorf("directory holds %d entries after concurrent publish, want %d (temp leftovers?)", len(ents), len(traces))
	}
}

// TestParseDigest pins the digest grammar: "sha256:" + exactly 64 hex
// digits, nothing else — the contract job fingerprints, the fleet's
// shard keys and the store's file names all share.
func TestParseDigest(t *testing.T) {
	lower := strings.Repeat("ab", 32)
	upper := strings.Repeat("AB", 32)
	valid := []struct{ in, wantHex string }{
		{DigestPrefix + lower, lower},
	}
	for _, tc := range valid {
		got, err := ParseDigest(tc.in)
		if err != nil || got != tc.wantHex {
			t.Errorf("ParseDigest(%q) = %q, %v; want %q", tc.in, got, err, tc.wantHex)
		}
	}
	invalid := []string{
		"",
		lower,                                   // bare hex, no algorithm tag
		"sha256:",                               // empty hex
		"sha1:" + lower,                         // wrong algorithm
		"SHA256:" + lower,                       // prefix is case-sensitive
		DigestPrefix + lower[:63],               // one digit short
		DigestPrefix + lower + "a",              // one digit long
		DigestPrefix + strings.Repeat("zz", 32), // not hexadecimal
		DigestPrefix + upper,                    // one spelling per content: lowercase
		DigestPrefix + "A" + lower[1:],          // one uppercase digit
		DigestPrefix + "../" + lower[:61],       // traversal attempt
	}
	for _, in := range invalid {
		if got, err := ParseDigest(in); err == nil {
			t.Errorf("ParseDigest(%q) accepted: %q", in, got)
		}
	}
}

// FuzzParseDigest: ParseDigest never panics; a digest it accepts is
// DigestPrefix and the 64 lowercase hex digits of 32 bytes, so each
// content has exactly one accepted spelling; and the file Store.Path
// names for it lies directly in the store directory. Run it with
//
//	go test -fuzz=FuzzParseDigest ./internal/trace
//
// The seed corpus in testdata/fuzz/FuzzParseDigest holds a valid
// digest, its uppercase and mixed-case spellings, a path traversal, a
// wrong algorithm tag, a short and a long digest and non-hex digits.
func FuzzParseDigest(f *testing.F) {
	st := &Store{dir: f.TempDir()}
	f.Fuzz(func(t *testing.T, digest string) {
		hexPart, err := ParseDigest(digest)
		if err != nil {
			return
		}
		raw, derr := hex.DecodeString(hexPart)
		if derr != nil || len(raw) != sha256.Size || DigestPrefix+hex.EncodeToString(raw) != digest {
			t.Fatalf("ParseDigest(%q) accepted hex %q, which is not the one spelling of its bytes", digest, hexPart)
		}
		path, err := st.Path(digest)
		if err != nil {
			t.Fatalf("Path(%q) refuses a digest ParseDigest accepts: %v", digest, err)
		}
		if filepath.Dir(path) != filepath.Clean(st.Dir()) {
			t.Fatalf("Path(%q) = %q, outside the store %q", digest, path, st.Dir())
		}
	})
}
