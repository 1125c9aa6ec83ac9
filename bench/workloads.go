package main

import (
	"fmt"
	"math/rand/v2"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/stats"
)

// A workload is one set of inputs the benchmark runs. README.md records
// why each was chosen.
type workload struct {
	name string
	// setups is how many times a run sets the workload up; setup_s is
	// their median. A sweep sets up in a fraction of a second, so it
	// repeats more to steady the median.
	setups int
	run    func(e *env) (*result, error)
}

var workloads = []workload{
	{"sweep-synth", 7, func(e *env) (*result, error) { return runSweep(e, false) }},
	{"sweep-replay", 7, func(e *env) (*result, error) { return runSweep(e, true) }},
	{"serve-skewed", 3, func(e *env) (*result, error) { return runServe(e, false) }},
	{"serve-fleet", 3, func(e *env) (*result, error) { return runServe(e, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Stream identifiers keep the random draws of each input independent of
// the others under one seed.
const (
	streamSweep uint64 = iota + 1
	streamPlan
	streamServeTasks
)

// inputSeed derives a kernel input seed (never 0, which selects the
// canonical inputs) from the benchmark seed.
func inputSeed(seed, i uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + i + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x ^ (x >> 31)) | 1
}

// A task is one unit of simulated work: a machine applied to one kernel
// instance, replayed from a .cvt file when trace is set.
type task struct {
	spec   config.MachineSpec
	cfg    config.Config
	kernel string
	scale  int
	seed   uint64
	trace  string
}

func newTask(spec config.MachineSpec, kernel string, scale int, seed uint64) (task, error) {
	cfg, err := spec.Build()
	if err != nil {
		return task{}, fmt.Errorf("machine %+v: %w", spec, err)
	}
	return task{spec: spec, cfg: cfg, kernel: kernel, scale: scale, seed: seed}, nil
}

func (t task) job() runner.Job {
	return runner.Job{Config: t.cfg, Kernel: t.kernel, Scale: t.scale, Seed: t.seed, Trace: t.trace}
}

func (t task) request() service.JobRequest {
	return service.JobRequest{Machine: t.spec, Kernel: t.kernel, Scale: t.scale, Seed: t.seed}
}

// id names the task's workload identity (the trace file, when there is
// one, is derived from it).
func (t task) id() string {
	return fmt.Sprintf("%+v|%s@%d~%d", t.spec, t.kernel, t.scale, t.seed)
}

// An op is one timed operation: a grid job or a served request.
type op struct {
	pos        int    // position in the workload's sequence
	task       int    // index of the task it ran
	class      string // ledger class (classSim for every sweep job)
	start, end time.Time
	res        stats.Results
	err        error
}

func (o op) latency() time.Duration { return o.end.Sub(o.start) }

// result is what a workload run hands to the reporting code.
type result struct {
	tasks   []task
	ops     []op
	wall    time.Duration   // timed phase, until the last op finished
	heap    []float64       // heap samples of the timed phase, MB
	setup   []time.Duration // one per set-up repetition
	workers int             // simulation workers behind the callers
	// served and fleet mark which serving layers the timed traffic went
	// through; traced runs probe the others separately.
	served, fleet bool
	spans         spanSet // traced runs only
}

// closedLoop runs callers goroutines. Each claims the next position of
// the sequence and performs it, and only then claims another, until d
// has passed (d <= 0: no deadline) or n positions are claimed (n < 0:
// unbounded). It returns the ops in sequence order, the time until the
// last one finished, and the heap sampled meanwhile.
func closedLoop(callers, n int, d time.Duration, do func(caller, pos int) op) ([]op, time.Duration, []float64) {
	var next atomic.Int64
	per := make([][]op, callers)
	stop := sampleHeap()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d <= 0 || time.Since(start) < d {
				pos := int(next.Add(1) - 1)
				if n >= 0 && pos >= n {
					return
				}
				per[c] = append(per[c], do(c, pos))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	heap := stop()
	var ops []op
	for _, p := range per {
		ops = append(ops, p...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })
	return ops, wall, heap
}

// heapEvery is the heap sampling period of a timed phase.
const heapEvery = 10 * time.Millisecond

// sampleHeap samples the heap in use (live objects and garbage not yet
// swept) every heapEvery until the returned stop is called; stop returns
// the samples in megabytes. The median of these follows what the
// workload keeps and allocates. Memory held from the operating system
// (mapped, not released) follows it too, but moves with when the
// runtime returns pages, and spreads up to twice as wide from run to run.
func sampleHeap() (stop func() []float64) {
	ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var xs []float64
	read := func() {
		metrics.Read(ms)
		xs = append(xs, float64(ms[0].Value.Uint64())/(1<<20))
	}
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			read()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() []float64 {
		close(done)
		<-finished
		return xs
	}
}

// spanSet gathers the finished spans of a traced run by who recorded
// them.
type spanSet struct {
	bench    []obs.Span // the benchmark's own root spans and their children
	clusterd []obs.Span // every clusterd server or replica
	coord    []obs.Span // the fleet coordinator
	dropped  uint64     // spans lost to full rings, across all collectors
}

func (s *spanSet) addCollector(c *obs.Collector) {
	s.bench = append(s.bench, c.Recent(0)...)
	s.dropped += c.Dropped()
}

func (s spanSet) all() []obs.Span {
	out := append(append(append([]obs.Span(nil), s.bench...), s.clusterd...), s.coord...)
	return out
}

// newRand returns the random source of one input stream.
func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }
