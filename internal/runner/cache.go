package runner

// Persistent result caching for the grid engine. The in-memory memo in
// Engine deduplicates work within one process; a Cache extends that
// across process restarts and across replicas sharing a cache
// directory: any two jobs with equal Fingerprint() produce identical
// Results, so a cached record can be served without re-simulating.
//
// A Cache is a directory of framed entries, one file per key. The frame
// (magic, version, CRC) means a corrupt or truncated entry is detected
// and treated as a miss, never returned — the same typed-error
// discipline internal/trace applies to .cvt files — and a temp file
// renamed into place means a reader, in this process or another
// replica, only ever sees a whole entry.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"clustervp/internal/stats"
)

// Typed cache-entry errors, mirroring the internal/trace error style so
// callers can errors.Is-classify failures without string matching. Get
// folds all of these into a miss; Load exposes them for diagnostics and
// tests.
var (
	// ErrCacheCorrupt means an entry exists but fails validation: bad
	// magic, unsupported version, CRC mismatch, malformed JSON, or a
	// fingerprint that does not match the requested key.
	ErrCacheCorrupt = errors.New("runner: corrupt result-cache entry")
	// ErrCacheTruncated means an entry ends before its framed payload
	// and checksum are complete (a torn write from a crashed process).
	ErrCacheTruncated = errors.New("runner: truncated result-cache entry")
)

// Cache-entry framing: magic, version byte, fixed 8-byte little-endian
// payload length, JSON payload, fixed 4-byte little-endian IEEE CRC-32
// of the payload. The length is bounded before any allocation so a
// corrupt length field cannot drive memory growth.
const (
	cacheMagic      = "CVRC"
	cacheVersion    = 1
	maxCachePayload = 1 << 24
)

// cacheEntry is the JSON payload of one stored record. The full
// fingerprint rides inside the entry because the file name only carries
// its hash: on read it is compared against the requested key, so a
// hash collision (or a foreign file dropped into the directory) reads
// as corruption, never as a false hit.
type cacheEntry struct {
	Fingerprint string        `json:"fingerprint"`
	Results     stats.Results `json:"results"`
}

// cacheKey is the file name an entry for the fingerprint lives at: its
// KeyDigest keeps names filesystem-safe and uniform regardless of what
// characters the fingerprint contains.
func cacheKey(fingerprint string) string { return KeyDigest(fingerprint) + ".cvr" }

// KeyDigest is the 64-hex SHA-256 of a job key (a fingerprint): the
// stem of the result-cache file that key's entry lives in, and the
// short name clusterd gives a job's key in its records, spans and
// logs. The key is hashed a block at a time, never copied whole: a
// fingerprint is most of a kilobyte and is digested on every job
// admission.
func KeyDigest(key string) string {
	h := sha256.New()
	var block [sha256.BlockSize]byte
	for len(key) > 0 {
		n := copy(block[:], key)
		h.Write(block[:n])
		key = key[n:]
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// encodeCacheEntry frames one entry for storage.
func encodeCacheEntry(fingerprint string, res stats.Results) ([]byte, error) {
	payload, err := json.Marshal(cacheEntry{Fingerprint: fingerprint, Results: res})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(cacheMagic)+1+8+len(payload)+4)
	buf = append(buf, cacheMagic...)
	buf = append(buf, cacheVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf, nil
}

// decodeCacheEntry validates a stored frame against the requested
// fingerprint and returns its results.
func decodeCacheEntry(fingerprint string, data []byte) (stats.Results, error) {
	head := len(cacheMagic) + 1 + 8
	if len(data) < head {
		return stats.Results{}, fmt.Errorf("%w: %d bytes, shorter than the %d-byte frame header",
			ErrCacheTruncated, len(data), head)
	}
	if string(data[:len(cacheMagic)]) != cacheMagic {
		return stats.Results{}, fmt.Errorf("%w: bad magic %q", ErrCacheCorrupt, data[:len(cacheMagic)])
	}
	if v := data[len(cacheMagic)]; v != cacheVersion {
		return stats.Results{}, fmt.Errorf("%w: version %d (supported: %d)", ErrCacheCorrupt, v, cacheVersion)
	}
	n := binary.LittleEndian.Uint64(data[len(cacheMagic)+1 : head])
	if n > maxCachePayload {
		return stats.Results{}, fmt.Errorf("%w: payload length %d exceeds %d", ErrCacheCorrupt, n, maxCachePayload)
	}
	if uint64(len(data)) < uint64(head)+n+4 {
		return stats.Results{}, fmt.Errorf("%w: payload+checksum end past the file", ErrCacheTruncated)
	}
	payload := data[head : uint64(head)+n]
	crc := binary.LittleEndian.Uint32(data[uint64(head)+n:])
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return stats.Results{}, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCacheCorrupt, got, crc)
	}
	var ent cacheEntry
	if err := json.Unmarshal(payload, &ent); err != nil {
		return stats.Results{}, fmt.Errorf("%w: %v", ErrCacheCorrupt, err)
	}
	if ent.Fingerprint != fingerprint {
		return stats.Results{}, fmt.Errorf("%w: entry fingerprint does not match the requested key", ErrCacheCorrupt)
	}
	return ent.Results, nil
}

// Cache is the persistent result cache: a directory holding one
// framed entry per fingerprint, named by cacheKey. It is safe for
// concurrent use by goroutines and by processes sharing the directory:
// Put publishes atomically and the last writer wins.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a result cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Path returns the file the fingerprint's entry lives in.
func (c *Cache) Path(fingerprint string) string { return filepath.Join(c.dir, cacheKey(fingerprint)) }

// Get returns the cached results for the fingerprint, or a miss for
// missing, truncated or corrupt entries.
func (c *Cache) Get(fingerprint string) (stats.Results, bool) {
	res, err := c.Load(fingerprint)
	if err != nil {
		return stats.Results{}, false
	}
	return res, true
}

// Load is Get with the failure cause: os.ErrNotExist for a missing
// entry, ErrCacheTruncated/ErrCacheCorrupt for a damaged one.
func (c *Cache) Load(fingerprint string) (stats.Results, error) {
	data, err := os.ReadFile(c.Path(fingerprint))
	if err != nil {
		return stats.Results{}, err
	}
	return decodeCacheEntry(fingerprint, data)
}

// Put (over)writes the fingerprint's entry: it writes a hidden temp
// file in the same directory, then renames it into place, so a crash
// mid-write leaves either the old entry or none — never a torn frame
// under the entry's name. Temp names start with "." so a crashed
// writer's leftovers can never collide with an entry.
func (c *Cache) Put(fingerprint string, res stats.Results) error {
	buf, err := encodeCacheEntry(fingerprint, res)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.Path(fingerprint)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
