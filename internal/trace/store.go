package trace

// Store is a content-addressed repository of .cvt traces: files are
// named by the SHA-256 of their bytes, so a digest uniquely identifies
// trace content across processes, replicas and uploads — the property
// the clusterd service's job fingerprints and result cache build on.
// Put verifies the full container (header and per-block CRCs, the
// trailer's record count, every record re-executed from the code and
// its load column) before publishing, so the store never holds a trace
// that would fail replay.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// DigestPrefix tags store digests with their hash algorithm.
const DigestPrefix = "sha256:"

// Digest reads r to its end and returns the SHA-256 of its bytes in
// the store's form, "sha256:<64 lowercase hex>": the one name a
// trace's content has, in the store, in job keys and in the arena.
func Digest(r io.Reader) (string, error) {
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return "", err
	}
	return DigestPrefix + hex.EncodeToString(h.Sum(nil)), nil
}

// Store is a directory of content-addressed .cvt traces. It is safe
// for concurrent use: writes go through temp files and a rename, and
// content addressing makes concurrent stores of the same bytes
// idempotent.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a trace store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// ParseDigest validates a digest string ("sha256:<64 lowercase hex>")
// and returns the bare hex component. Uppercase hex is refused: the
// store names its files in lowercase, and one content must have one
// digest, or the fleet would shard its two spellings apart.
func ParseDigest(digest string) (string, error) {
	hexPart, ok := strings.CutPrefix(digest, DigestPrefix)
	if !ok {
		return "", fmt.Errorf("trace: digest %q does not start with %q", digest, DigestPrefix)
	}
	if len(hexPart) != sha256.Size*2 {
		return "", fmt.Errorf("trace: digest %q has %d hex digits, want %d", digest, len(hexPart), sha256.Size*2)
	}
	if strings.ToLower(hexPart) != hexPart {
		return "", fmt.Errorf("trace: digest %q is not lowercase hexadecimal", digest)
	}
	if _, err := hex.DecodeString(hexPart); err != nil {
		return "", fmt.Errorf("trace: digest %q is not hexadecimal", digest)
	}
	return hexPart, nil
}

// Path returns the file a digest resolves to, without checking
// existence; it rejects malformed digests (which also keeps path
// traversal out of the store).
func (s *Store) Path(digest string) (string, error) {
	hexPart, err := ParseDigest(digest)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.dir, "sha256-"+hexPart+".cvt"), nil
}

// Has reports whether the store holds the digest.
func (s *Store) Has(digest string) bool {
	p, err := s.Path(digest)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// Put streams a .cvt container into the store: the bytes are hashed
// while being spooled to a temp file, the temp file is then decoded
// end to end (every CRC checked, every record re-executed, at most
// maxRecords of them) to prove it replays, and only a fully valid
// trace is renamed into place. It returns the content digest and
// the record count. Storing bytes already present is a cheap no-op
// beyond the verification read.
func (s *Store) Put(r io.Reader) (digest string, records uint64, err error) {
	tmp, err := os.CreateTemp(s.dir, ".cvt-upload-*")
	if err != nil {
		return "", 0, err
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	digest, err = Digest(io.TeeReader(r, tmp))
	if err != nil {
		return "", 0, err
	}
	records, err = verifyFile(tmp)
	if err != nil {
		return "", 0, err
	}
	path, err := s.Path(digest)
	if err != nil {
		return "", 0, err
	}
	if err := tmp.Close(); err != nil {
		return "", 0, err
	}
	if _, statErr := os.Stat(path); statErr == nil {
		// Identical content already stored; keep the existing file.
		return digest, records, nil
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", 0, err
	}
	return digest, records, nil
}

// PutFile is Put over an existing file on disk.
func (s *Store) PutFile(path string) (digest string, records uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return s.Put(f)
}

// Open streams a stored trace for replay.
func (s *Store) Open(digest string) (*FileReader, error) {
	p, err := s.Path(digest)
	if err != nil {
		return nil, err
	}
	return OpenFile(p)
}

// verifyFile decodes the spooled container from the start, checking
// every CRC and re-executing every record, and returns the record
// count. NewReader refuses an end block claiming more than maxRecords
// before any record is re-executed.
func verifyFile(f *os.File) (uint64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r, err := NewReader(f)
	if err != nil {
		return 0, err
	}
	var d DynInst
	for r.Next(&d) {
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	return r.Count(), nil
}
