package runner

// Trace-file support for the grid engine: content fingerprinting for
// the memoization key, and pre-materialization of the traces a grid
// shares so each workload is synthesized and encoded exactly once no
// matter how many configurations replay it.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"clustervp/internal/config"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// fileFacts memoizes what the engine learned about a trace file — its
// content digest, and whether it verified — keyed by path and
// revalidated by (size, mtime), so an overwritten file is hashed and
// verified again instead of serving a stale answer. Two updates of one
// path racing may drop one fact, which only costs recomputing it.
var fileFacts sync.Map // path -> fileFact

type fileFact struct {
	size, mtime int64
	digest      string // "" until hashed
	verified    bool
}

// factFor returns the remembered fact for the file at path if st still
// describes it, or a blank fact for st.
func factFor(path string, st os.FileInfo) fileFact {
	if e, ok := fileFacts.Load(path); ok {
		f := e.(fileFact)
		if f.size == st.Size() && f.mtime == st.ModTime().UnixNano() {
			return f
		}
	}
	return fileFact{size: st.Size(), mtime: st.ModTime().UnixNano()}
}

// traceDigest returns the trace.Digest of the file at path. Failures
// fold the error into the result, so a missing file still memoizes
// deterministically (and re-checks once it appears, via the stat
// revalidation).
func traceDigest(path string) string {
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Sprintf("%s!%v", path, err)
	}
	fact := factFor(path, st)
	if fact.digest != "" {
		return fact.digest
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Sprintf("%s!%v", path, err)
	}
	defer f.Close()
	if fact.digest, err = trace.Digest(bufio.NewReaderSize(f, 1<<16)); err != nil {
		return fmt.Sprintf("%s!%v", path, err)
	}
	fileFacts.Store(path, fact)
	return fact.digest
}

// StoredTraceJob is the keyed job replaying the trace a content-
// addressed trace.Store holds at path under digest. The store's file
// name is its digest, so the file is not hashed again: the digest is
// remembered for path, where the arena looks it up.
func StoredTraceJob(cfg config.Config, path, digest string) Job {
	if st, err := os.Stat(path); err == nil {
		fact := factFor(path, st)
		fact.digest = digest
		fileFacts.Store(path, fact)
	}
	return Job{Config: cfg, Trace: path, key: TraceKey(cfg, digest)}
}

// TracePath names the .cvt file MaterializeTraces writes for a
// workload instance inside dir.
func TracePath(dir, kernel string, scale int, seed uint64) string {
	name := fmt.Sprintf("%s-s%d", kernel, scale)
	if seed != 0 {
		name = fmt.Sprintf("%s-seed%d", name, seed)
	}
	return filepath.Join(dir, name+".cvt")
}

// verifyTrace reports whether the .cvt file at path decodes cleanly end
// to end — header, every block CRC, and the record-count trailer — i.e.
// whether its content digest is intact. Any failure (missing file, bad
// magic, corruption, truncation) reports false; the caller regenerates.
// A success is remembered until the file changes, so repeated grid runs
// against a warm trace directory pay one full decode per file per
// change, not per run.
func verifyTrace(path string) bool {
	st, err := os.Stat(path)
	if err != nil {
		return false
	}
	fact := factFor(path, st)
	if fact.verified {
		return true
	}
	fr, err := trace.OpenFile(path)
	if err != nil {
		return false
	}
	defer fr.Close()
	var d trace.DynInst
	for fr.Next(&d) {
	}
	if fr.Err() != nil {
		return false
	}
	fact.verified = true
	fileFacts.Store(path, fact)
	return true
}

// MaterializeTraces writes each distinct (kernel, scale, seed) workload
// among the jobs to a .cvt file under dir — once, however many
// configurations share it — and returns a copy of the jobs rewritten
// to replay those files. Jobs that already name a trace pass through
// untouched. An existing file is reused only after verifying it decodes
// cleanly (CRC-checked end to end); a corrupt or truncated leftover is
// regenerated in place rather than poisoning every job that replays it.
// Successive grid runs against an intact directory skip generation
// entirely.
func MaterializeTraces(dir string, jobs []Job) ([]Job, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	out := make([]Job, len(jobs))
	written := map[string]bool{}
	for i, j := range jobs {
		out[i] = j
		if j.Trace != "" {
			continue
		}
		path := TracePath(dir, j.Kernel, j.EffectiveScale(), j.Seed)
		if !written[path] {
			if !verifyTrace(path) {
				prog, err := workload.Build(j.Kernel, j.EffectiveScale(), j.Seed)
				if err != nil {
					return nil, fmt.Errorf("runner: materialize %s: %w", path, err)
				}
				if _, err := trace.WriteFile(path, prog.Name, prog.Code, trace.NewExecutor(prog)); err != nil {
					return nil, fmt.Errorf("runner: materialize %s: %w", path, err)
				}
			}
			written[path] = true
		}
		out[i].Trace = path
	}
	return out, nil
}
