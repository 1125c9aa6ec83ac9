package runner

// BlobStore-layer tests: the framing works over any backend (a memory
// store stands in for an object store), DirStore keeps the atomic
// publish + not-exist contract, and two caches sharing one directory —
// the fleet's shared-cache-backend arrangement — never observe torn or
// cross-keyed entries under concurrent publish.

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// memStore is an in-memory BlobStore standing in for a remote object
// store: same contract, no filesystem.
type memStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
	puts  int
}

func newMemStore() *memStore { return &memStore{blobs: make(map[string][]byte)} }

func (s *memStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[key]
	if !ok {
		return nil, fmt.Errorf("memstore: %q: %w", key, os.ErrNotExist)
	}
	return append([]byte(nil), b...), nil
}

func (s *memStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[key] = append([]byte(nil), data...)
	s.puts++
	return nil
}

// TestBlobCacheOverMemoryStore: the ResultCache contract holds over a
// non-filesystem backend — the framing is backend-agnostic.
func TestBlobCacheOverMemoryStore(t *testing.T) {
	store := newMemStore()
	c := NewBlobCache(store)
	if _, ok := c.Get("fp"); ok {
		t.Fatal("empty store reported a hit")
	}
	if _, err := c.Load("fp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Load on empty store = %v, want os.ErrNotExist", err)
	}
	want := testResults(77)
	if err := c.Put("fp", want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("fp")
	if !ok || got.Cycles != want.Cycles || got.Benchmark != want.Benchmark {
		t.Fatalf("round trip over memory store: ok=%v got=%+v", ok, got)
	}

	// Damage the blob in place: the framing must classify it, and Get
	// must miss — regardless of backend.
	key := cacheKey("fp")
	store.mu.Lock()
	store.blobs[key] = store.blobs[key][:len(store.blobs[key])/2]
	store.mu.Unlock()
	if _, ok := c.Get("fp"); ok {
		t.Fatal("truncated blob served as a hit")
	}
	if _, err := c.Load("fp"); !errors.Is(err, ErrCacheTruncated) {
		t.Errorf("Load of truncated blob = %v, want ErrCacheTruncated", err)
	}
}

// TestEngineOverBlobStore: the engine's Cache option accepts any
// BlobStore-backed cache, and a second engine over the same store
// resolves everything without simulating.
func TestEngineOverBlobStore(t *testing.T) {
	store := newMemStore()
	jobs := cacheTestJobs()

	var cold int64
	e1 := countingEngine(NewBlobCache(store), &cold)
	if err := FirstErr(e1.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	if cold != int64(len(jobs)) {
		t.Fatalf("cold engine simulated %d, want %d", cold, len(jobs))
	}

	var warm int64
	e2 := countingEngine(NewBlobCache(store), &warm)
	if err := FirstErr(e2.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	if warm != 0 || e2.CacheHits() != int64(len(jobs)) {
		t.Fatalf("warm engine simulated %d (cache hits %d), want 0 (%d)", warm, e2.CacheHits(), len(jobs))
	}
}

// TestDirStoreContract pins the BlobStore semantics of the local
// backend: not-exist misses, overwrite wins, and no leftover temp
// files after publishes.
func TestDirStoreContract(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Get on empty store = %v, want os.ErrNotExist", err)
	}
	if err := s.Put("k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil || string(got) != "two" {
		t.Fatalf("Get after overwrite = %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "k" {
		t.Errorf("store dir holds %d entries (want just %q): %v", len(ents), "k", ents)
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

	caches := make([]*BlobCache, replicas)
	for i := range caches {
		c, _ := newDirCache(t, dir)
		caches[i] = c
	}

	var wg sync.WaitGroup
	errs := make(chan error, replicas*rounds*fps)
	for r, c := range caches {
		wg.Add(1)
		go func(r int, c *BlobCache) {
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
	fresh, _ := newDirCache(t, dir)
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
