package runner

// Persistent result caching for the grid engine. The in-memory memo in
// Engine deduplicates work within one process; a ResultCache extends
// that across process restarts and across replicas sharing a cache
// backend: any two jobs with equal Fingerprint() produce identical
// Results, so a cached record can be served without re-simulating.
//
// The cache is layered: BlobCache owns the entry framing (magic,
// version, CRC — so a corrupt or truncated entry is detected and
// treated as a miss, never returned, the same typed-error discipline
// internal/trace applies to .cvt files) over any BlobStore backend.
// A local DirStore is the single-box default, and the shared-directory
// backend fleet replicas use today; an object-store BlobStore slots in
// without touching the framing.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"clustervp/internal/stats"
)

// ResultCache persists simulation outcomes keyed by Job.Fingerprint().
// Get reports a miss (false) for unknown, unreadable or corrupt
// entries; Put overwrites any existing entry. Implementations must be
// safe for concurrent use.
type ResultCache interface {
	Get(fingerprint string) (stats.Results, bool)
	Put(fingerprint string, res stats.Results) error
}

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
// fingerprint rides inside the entry because the blob key only carries
// its hash: on read it is compared against the requested key, so a
// hash collision (or a foreign blob dropped into the backend) reads as
// corruption, never as a false hit.
type cacheEntry struct {
	Fingerprint string        `json:"fingerprint"`
	Results     stats.Results `json:"results"`
}

// cacheKey is the blob key an entry for the fingerprint lives at: the
// SHA-256 of the fingerprint keeps keys backend-safe and uniform
// regardless of what characters the fingerprint contains.
func cacheKey(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return fmt.Sprintf("%x.cvr", sum)
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

// BlobCache is a content-addressed ResultCache over any BlobStore. It
// is as concurrency-safe as its backend: the framing itself holds no
// state.
type BlobCache struct {
	store BlobStore
}

// NewBlobCache wraps a blob store in the result-cache framing.
func NewBlobCache(store BlobStore) *BlobCache { return &BlobCache{store: store} }

// Get implements ResultCache: it returns the cached results for the
// fingerprint, or a miss for missing, truncated or corrupt entries.
func (c *BlobCache) Get(fingerprint string) (stats.Results, bool) {
	res, err := c.Load(fingerprint)
	if err != nil {
		return stats.Results{}, false
	}
	return res, true
}

// Load is Get with the failure cause: os.ErrNotExist for a missing
// entry, ErrCacheTruncated/ErrCacheCorrupt for a damaged one.
func (c *BlobCache) Load(fingerprint string) (stats.Results, error) {
	data, err := c.store.Get(cacheKey(fingerprint))
	if err != nil {
		return stats.Results{}, err
	}
	return decodeCacheEntry(fingerprint, data)
}

// Put implements ResultCache: it (over)writes the entry through the
// backend's atomic publish, so a crash mid-write leaves either the old
// entry or none — never a torn frame at the published key.
func (c *BlobCache) Put(fingerprint string, res stats.Results) error {
	buf, err := encodeCacheEntry(fingerprint, res)
	if err != nil {
		return err
	}
	return c.store.Put(cacheKey(fingerprint), buf)
}

var _ ResultCache = (*BlobCache)(nil)
