package main

// Output correctness. An operation fails when it returned an error,
// when its result differs from another resolution of the same task —
// the answer must not depend on how the work was split, cached or
// transported — when a replay committed a different number of
// instructions than its trace holds, or when its task is in the seeded
// 1-in-8 sample and disagrees with a cold reference simulation.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"clustervp"
	"clustervp/internal/core"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
)

// sampleEvery is the fraction (1 in sampleEvery) of distinct tasks
// checked against a cold reference simulation.
const sampleEvery = 8

// checker holds what verify compares against; tests substitute each.
type checker struct {
	sampled   func(t task) bool
	reference func(t task) (stats.Results, error)
	records   func(path string) (uint64, error)
}

func newChecker(seed uint64) checker {
	return checker{
		sampled: func(t task) bool {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%s", seed, t.id())
			return h.Sum64()%sampleEvery == 0
		},
		reference: reference,
		records:   traceRecords,
	}
}

// reference simulates t cold: a fresh Sim over a fresh functional
// executor, with no pool, arena, cache or HTTP in between.
func reference(t task) (stats.Results, error) {
	prog, err := clustervp.BuildKernelSeeded(t.kernel, t.scale, t.seed)
	if err != nil {
		return stats.Results{}, err
	}
	sim, err := core.NewFromSource(t.cfg, trace.NewExecutor(prog), prog.Name)
	if err != nil {
		return stats.Results{}, err
	}
	return sim.Run()
}

// traceRecords counts the records of a .cvt file by decoding it.
func traceRecords(path string) (uint64, error) {
	fr, err := trace.OpenFile(path)
	if err != nil {
		return 0, err
	}
	defer fr.Close()
	var d trace.DynInst
	for fr.Next(&d) {
	}
	return fr.Count(), fr.Err()
}

// resultKey is a digest of a result's JSON form, the form every
// transport carries, so results compare alike however they arrived.
func resultKey(r stats.Results) string {
	b, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return string(sum[:])
}

// verify returns how many ops failed, with a reason for the first.
func (c checker) verify(ops []op, tasks []task) (failed int, first string) {
	bad := make([]string, len(ops))
	keys := make([]string, len(ops))
	firstKey := map[int]string{} // task → key of its first good resolution
	counts := map[string]uint64{}
	for i, o := range ops {
		t := tasks[o.task]
		if o.err != nil {
			bad[i] = o.err.Error()
			continue
		}
		keys[i] = resultKey(o.res)
		if k, ok := firstKey[o.task]; !ok {
			firstKey[o.task] = keys[i]
		} else if k != keys[i] {
			bad[i] = fmt.Sprintf("%s: result differs from an earlier resolution", t.id())
			continue
		}
		if t.trace == "" {
			continue
		}
		n, ok := counts[t.trace]
		if !ok {
			var err error
			if n, err = c.records(t.trace); err != nil {
				bad[i] = fmt.Sprintf("%s: counting trace records: %v", t.id(), err)
				continue
			}
			counts[t.trace] = n
		}
		if o.res.Instructions != n {
			bad[i] = fmt.Sprintf("%s: committed %d instructions of a %d-record trace", t.id(), o.res.Instructions, n)
		}
	}

	refs := c.references(firstKey, tasks)
	for i, o := range ops {
		if want, ok := refs[o.task]; ok && bad[i] == "" && keys[i] != want {
			bad[i] = fmt.Sprintf("%s: result differs from the cold reference simulation", tasks[o.task].id())
		}
	}
	for _, b := range bad {
		if b != "" {
			if failed == 0 {
				first = b
			}
			failed++
		}
	}
	return failed, first
}

// references simulates the sampled resolved tasks cold on two
// goroutines and returns their result keys; a failed reference maps to
// a key no result has.
func (c checker) references(resolved map[int]string, tasks []task) map[int]string {
	work := make(chan int)
	refs := map[int]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < maxProcs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range work {
				key := "reference failed"
				if r, err := c.reference(tasks[ti]); err == nil {
					key = resultKey(r)
				}
				mu.Lock()
				refs[ti] = key
				mu.Unlock()
			}
		}()
	}
	for ti := range resolved {
		if c.sampled(tasks[ti]) {
			work <- ti
		}
	}
	close(work)
	wg.Wait()
	return refs
}
