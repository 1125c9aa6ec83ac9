package runner

// On-disk result-cache tests: round-trip, corruption taxonomy (every
// damaged entry is a typed error and a Get miss, never a wrong hit),
// rewrite-on-miss through the engine, and cross-engine persistence —
// the contract the clusterd service restarts depend on.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"clustervp/internal/config"
	"clustervp/internal/stats"
)

func testResults(cycles int64) stats.Results {
	return stats.Results{
		Config:       "test",
		Benchmark:    "kern",
		Cycles:       cycles,
		Instructions: uint64(cycles) * 2,
		Copies:       7,
		Topology:     "bus",
		HopHistogram: []uint64{0, 5},
		PerCluster: []stats.ClusterStats{
			{Spec: "2w16q", Dispatched: 10, Issued: 12, CopiesOut: 3, IQOccSum: 40},
		},
	}
}

// newDirCache opens the on-disk result cache rooted at dir.
func newDirCache(t testing.TB, dir string) *Cache {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDiskCacheRoundTrip(t *testing.T) {
	c := newDirCache(t, t.TempDir())
	want := testResults(1234)
	if _, ok := c.Get("fp1"); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put("fp1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("fp1")
	if !ok {
		t.Fatal("stored entry reported a miss")
	}
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
		got.Benchmark != want.Benchmark || len(got.PerCluster) != 1 ||
		got.PerCluster[0] != want.PerCluster[0] {
		t.Errorf("round trip mutated the results:\nput %+v\ngot %+v", want, got)
	}
	if _, ok := c.Get("fp2"); ok {
		t.Error("hit on a fingerprint that was never stored")
	}
	// Overwrite wins.
	if err := c.Put("fp1", testResults(99)); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("fp1"); got.Cycles != 99 {
		t.Errorf("after overwrite Cycles = %d, want 99", got.Cycles)
	}
}

// TestDiskCacheCorruptionIsMiss damages an entry every way the frame
// can break and requires each to be (a) a typed error from Load and
// (b) a plain miss from Get — corrupt data must never be returned.
func TestDiskCacheCorruptionIsMiss(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"truncated-header", func(b []byte) []byte { return b[:4] }, ErrCacheTruncated},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)*2/3] }, ErrCacheTruncated},
		{"missing-checksum", func(b []byte) []byte { return b[:len(b)-2] }, ErrCacheTruncated},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrCacheCorrupt},
		{"bad-version", func(b []byte) []byte { b[4] = 99; return b }, ErrCacheCorrupt},
		{"flipped-payload-bit", func(b []byte) []byte { b[20] ^= 0x40; return b }, ErrCacheCorrupt},
		{"oversized-length", func(b []byte) []byte {
			for i := 5; i < 13; i++ {
				b[i] = 0xff
			}
			return b
		}, ErrCacheCorrupt},
		{"empty-file", func(b []byte) []byte { return nil }, ErrCacheTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newDirCache(t, t.TempDir())
			if err := c.Put("fp", testResults(42)); err != nil {
				t.Fatal(err)
			}
			path := c.Path("fp")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), data...)), 0o666); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("fp"); ok {
				t.Fatal("Get returned a damaged entry as a hit")
			}
			if _, err := c.Load("fp"); !errors.Is(err, tc.wantErr) {
				t.Errorf("Load error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestDiskCacheFingerprintMismatch: an entry whose embedded fingerprint
// disagrees with the requested key (hash collision, or a stray file) is
// corruption, not a hit.
func TestDiskCacheFingerprintMismatch(t *testing.T) {
	c := newDirCache(t, t.TempDir())
	if err := c.Put("other", testResults(7)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.Path("other"))
	if err != nil {
		t.Fatal(err)
	}
	// Plant the well-formed entry for "other" at the path for "fp".
	if err := os.WriteFile(c.Path("fp"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("fp"); ok {
		t.Fatal("entry for a different fingerprint served as a hit")
	}
	if _, err := c.Load("fp"); !errors.Is(err, ErrCacheCorrupt) {
		t.Errorf("Load error = %v, want ErrCacheCorrupt", err)
	}
}

// TestDiskCacheMissingIsNotExist pins the Load taxonomy: absent entries
// report os.ErrNotExist, distinct from corruption.
func TestDiskCacheMissingIsNotExist(t *testing.T) {
	c := newDirCache(t, t.TempDir())
	if _, err := c.Load("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Load of a missing entry = %v, want os.ErrNotExist", err)
	}
}

// countingEngine builds an engine around a stub simulator that counts
// invocations, backed by cache.
func countingEngine(cache *Cache, calls *int64) *Engine {
	return New(Options{
		Workers: 2,
		Cache:   cache,
		Run: func(j Job) (stats.Results, error) {
			atomic.AddInt64(calls, 1)
			return stats.Results{Config: j.Config.Name, Benchmark: j.Kernel, Cycles: 100, Instructions: 150}, nil
		},
	})
}

func cacheTestJobs() []Job {
	return []Job{
		{Config: config.Preset(2), Kernel: "cjpeg", Scale: 1},
		{Config: config.Preset(4), Kernel: "cjpeg", Scale: 1},
		{Config: config.Preset(4), Kernel: "gsmdec", Scale: 1},
	}
}

// TestEnginePersistentCache is the restart contract: a second engine
// sharing the cache directory serves the whole grid without a single
// simulator invocation, and a corrupted entry is re-simulated and
// rewritten in place.
func TestEnginePersistentCache(t *testing.T) {
	dir := t.TempDir()
	cache := newDirCache(t, dir)
	jobs := cacheTestJobs()

	var cold int64
	e1 := countingEngine(cache, &cold)
	if err := FirstErr(e1.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	if cold != int64(len(jobs)) {
		t.Fatalf("cold engine simulated %d jobs, want %d", cold, len(jobs))
	}
	if e1.CacheHits() != 0 {
		t.Fatalf("cold engine reported %d cache hits, want 0", e1.CacheHits())
	}

	// "Restart": fresh engine, same directory.
	var warm int64
	e2 := countingEngine(cache, &warm)
	rs := e2.Run(jobs)
	if err := FirstErr(rs); err != nil {
		t.Fatal(err)
	}
	if warm != 0 || e2.Executed() != 0 {
		t.Fatalf("warm engine simulated %d jobs (Executed=%d), want 0", warm, e2.Executed())
	}
	if e2.CacheHits() != int64(len(jobs)) {
		t.Fatalf("warm engine cache hits = %d, want %d", e2.CacheHits(), len(jobs))
	}
	for _, r := range rs {
		if r.Res.Cycles != 100 || r.Res.Instructions != 150 {
			t.Errorf("cached result for %s lost counters: %+v", r.Job, r.Res)
		}
	}

	// Corrupt one entry: the next engine re-simulates exactly that job
	// and rewrites the entry so a fourth engine hits again.
	fp := jobs[1].Fingerprint()
	path := cache.Path(fp)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	var repair int64
	e3 := countingEngine(cache, &repair)
	if err := FirstErr(e3.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	if repair != 1 || e3.CacheHits() != int64(len(jobs))-1 {
		t.Fatalf("after corrupting one entry: simulated %d (want 1), cache hits %d (want %d)",
			repair, e3.CacheHits(), len(jobs)-1)
	}
	if _, err := cache.Load(fp); err != nil {
		t.Fatalf("corrupt entry was not rewritten: %v", err)
	}
}

// TestEngineCacheSkipsFailedJobs: errors are memoized in-process but
// never written to the persistent cache — a transient failure must not
// poison future processes.
func TestEngineCacheSkipsFailedJobs(t *testing.T) {
	cache := newDirCache(t, t.TempDir())
	var calls int64
	boom := errors.New("boom")
	e := New(Options{Workers: 1, Cache: cache, Run: func(j Job) (stats.Results, error) {
		atomic.AddInt64(&calls, 1)
		return stats.Results{}, boom
	}})
	job := Job{Config: config.Preset(2), Kernel: "cjpeg"}
	if err := FirstErr(e.Run([]Job{job})); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := cache.Load(job.Fingerprint()); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed job left a cache entry (err=%v)", err)
	}
}

// TestCachePutOverwrites pins the publish semantics of the cache
// directory: the last Put wins, and no temp file outlives a publish.
func TestCachePutOverwrites(t *testing.T) {
	dir := t.TempDir()
	c := newDirCache(t, dir)
	for _, cycles := range []int64{1, 2} {
		if err := c.Put("k", testResults(cycles)); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := c.Load("k"); err != nil || res.Cycles != 2 {
		t.Fatalf("Load after overwrite = cycles %d, %v; want 2", res.Cycles, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != cacheKey("k") {
		t.Errorf("cache dir holds %v, want just %s", ents, cacheKey("k"))
	}
}

// TestSharedDirConcurrentPublish is the fleet arrangement in miniature:
// several on-disk caches (distinct handles, as replicas would hold) over
// ONE directory, concurrently publishing and reading the same
// fingerprints. Every hit must decode to the exact results some writer
// published — the CRC framing plus atomic rename make a torn or mixed
// read impossible. Run under -race.
func TestSharedDirConcurrentPublish(t *testing.T) {
	dir := t.TempDir()
	const replicas, rounds, fps = 3, 25, 4

	caches := make([]*Cache, replicas)
	for i := range caches {
		caches[i] = newDirCache(t, dir)
	}

	var wg sync.WaitGroup
	errs := make(chan error, replicas*rounds*fps)
	for r, c := range caches {
		wg.Add(1)
		go func(r int, c *Cache) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for k := 0; k < fps; k++ {
					fp := fmt.Sprintf("fp-%d", k)
					// Identical fingerprint ⇒ identical results, so
					// concurrent writers race benignly: the cycles value
					// is a function of the key alone.
					want := testResults(int64(1000 + k))
					if err := c.Put(fp, want); err != nil {
						errs <- fmt.Errorf("replica %d put %s: %w", r, fp, err)
						return
					}
					got, ok := c.Get(fp)
					if !ok {
						errs <- fmt.Errorf("replica %d: miss on %s just after publish", r, fp)
						return
					}
					if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
						errs <- fmt.Errorf("replica %d: torn read on %s: got cycles=%d want %d",
							r, fp, got.Cycles, want.Cycles)
						return
					}
				}
			}
		}(r, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles every key decodes cleanly on a fresh
	// handle, and no temp files leaked.
	fresh := newDirCache(t, dir)
	for k := 0; k < fps; k++ {
		fp := fmt.Sprintf("fp-%d", k)
		if res, err := fresh.Load(fp); err != nil || res.Cycles != int64(1000+k) {
			t.Errorf("final Load(%s) = cycles %d, err %v", fp, res.Cycles, err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != fps {
		t.Errorf("shared dir holds %d files after the storm, want %d", len(ents), fps)
	}
}

// TestKeyDigestNamesCacheFiles: KeyDigest is the SHA-256 of the key in
// lowercase hex whatever the key's length against the hash's 64-byte
// block, and a fingerprint's cache file is still named by it, so a
// cache directory written before KeyDigest existed still hits.
func TestKeyDigestNamesCacheFiles(t *testing.T) {
	fp := Job{Config: config.Preset(4), Kernel: "rawcaudio"}.Fingerprint()
	for _, key := range []string{"", "fp", strings.Repeat("k", 63), strings.Repeat("k", 64), strings.Repeat("k", 65), fp} {
		sum := sha256.Sum256([]byte(key))
		want := hex.EncodeToString(sum[:])
		if got := KeyDigest(key); got != want {
			t.Errorf("KeyDigest of a %d-byte key = %s, want %s", len(key), got, want)
		}
		if got, was := cacheKey(key), fmt.Sprintf("%x.cvr", sum); got != was {
			t.Errorf("cacheKey of a %d-byte key = %s, was %s", len(key), got, was)
		}
	}
}

// FuzzCacheEntry throws arbitrary (key, bytes) pairs at the result-cache
// entry decoder, the boundary a shared cache directory crosses: it must
// never panic, every rejection must wrap ErrCacheCorrupt or
// ErrCacheTruncated, an accepted entry must encode and decode back to
// the same results, and any valid UTF-8 key must round-trip through
// encode and decode. The seed corpus in testdata/fuzz/FuzzCacheEntry
// holds a valid entry and one of each damage the decoder names. Run it
// with
//
//	go test -fuzz=FuzzCacheEntry ./internal/runner
func FuzzCacheEntry(f *testing.F) {
	valid, err := encodeCacheEntry("fp", testResults(9))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("fp", valid)
	f.Add("other", valid)
	f.Fuzz(func(t *testing.T, fp string, data []byte) {
		res, err := decodeCacheEntry(fp, data)
		if err != nil {
			if !errors.Is(err, ErrCacheCorrupt) && !errors.Is(err, ErrCacheTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
		} else {
			buf, err := encodeCacheEntry(fp, res)
			if err != nil {
				t.Fatalf("re-encoding an accepted entry: %v", err)
			}
			again, err := decodeCacheEntry(fp, buf)
			if err != nil || !reflect.DeepEqual(again, res) {
				t.Fatalf("accepted entry does not round-trip: %v\n got %+v\nwant %+v", err, again, res)
			}
		}
		if !utf8.ValidString(fp) {
			return
		}
		want := testResults(int64(len(data)))
		buf, err := encodeCacheEntry(fp, want)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeCacheEntry(fp, buf); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("key %q does not round-trip: %v", fp, err)
		}
	})
}
