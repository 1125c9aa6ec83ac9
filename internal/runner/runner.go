// Package runner is the experiment-grid engine behind cmd/experiments
// and clustervp.RunGrid: it expands declarative grids of (machine
// configuration × kernel × scale) into jobs, executes them on a bounded
// worker pool, and memoizes results by a canonical fingerprint so a
// configuration shared by several figures (e.g. the 1-cluster
// centralized reference) is simulated exactly once per engine.
//
// Results always come back in job order, regardless of the order in
// which workers finish, so grid output is deterministic under any
// -jobs setting.
package runner

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"

	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/interconnect"
	"clustervp/internal/obs"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// Job is one simulation: a machine configuration applied to a suite
// kernel at a workload scale, or to a pre-recorded .cvt trace file.
type Job struct {
	Config config.Config
	Kernel string
	Scale  int
	// Seed re-seeds the kernel's pseudo-random input streams (0 = the
	// canonical inputs). Ignored when Trace is set — a trace file bakes
	// its inputs in.
	Seed uint64
	// Trace, when non-empty, replays the .cvt file at that path instead
	// of synthesizing the kernel in-process. Kernel then only labels the
	// results (falling back to the trace's own header name when empty).
	Trace string

	// key is the fingerprint Keyed computed, "" until then.
	key string
}

// Keyed returns j carrying its fingerprint, so the engine, its run
// function and the caller read the key without formatting the Config
// again. Change no field of the keyed job: the key would go stale.
func (j Job) Keyed() Job {
	j.key = j.Fingerprint()
	return j
}

// EffectiveScale is the scale actually simulated (scales below 1 clamp
// to 1, matching clustervp.Run).
func (j Job) EffectiveScale() int {
	if j.Scale < 1 {
		return 1
	}
	return j.Scale
}

// Fingerprint is the canonical memoization key: the full Config value
// (Name is cosmetic and zeroed out) plus the workload identity — kernel
// name, effective scale and input seed for in-process synthesis, or
// the content digest for trace replays (TraceKey). Deriving it from the
// struct itself means a field added to Config later is covered
// automatically — at worst a cache miss, never a silent false hit. Two
// jobs with equal fingerprints produce identical Results, so the
// engine runs only one of them.
//
// Trace files are fingerprinted by content (trace.Digest), not by
// path: two grids pointing at byte-identical traces share one
// simulation, and overwriting a trace file between runs changes the key
// instead of silently serving stale results. An unreadable trace
// fingerprints as its path plus the stat error, which still memoizes
// the (failing) job deterministically.
func (j Job) Fingerprint() string {
	if j.key != "" {
		return j.key
	}
	if j.Trace != "" {
		return TraceKey(j.Config, traceDigest(j.Trace))
	}
	c := j.Config
	c.Name = ""
	return fmt.Sprintf("%+v|%s@%d~%d", c, j.Kernel, j.EffectiveScale(), j.Seed)
}

// TraceKey is the key of a job replaying the trace with the given
// trace.Digest under cfg: the one spelling a trace job's key has,
// whichever process builds it — the engine from a file, a clusterd
// replica from its store, or a fleet coordinator that holds no trace.
func TraceKey(cfg config.Config, digest string) string {
	cfg.Name = ""
	return fmt.Sprintf("%+v|trace:%s", cfg, digest)
}

// displayName labels a configuration in progress lines and exported
// records.
func displayName(c config.Config) string {
	if c.Name != "" {
		return c.Name
	}
	if c.NumClusters() > 0 && !c.Homogeneous() {
		return c.SpecString()
	}
	return fmt.Sprintf("%dcluster", c.NumClusters())
}

// String identifies the job in progress lines and errors. The topology
// is spelled out only when it departs from the paper's default bus
// fabric, keeping the common progress lines compact.
func (j Job) String() string {
	topo := ""
	if j.Config.Topology != interconnect.KindBus {
		topo = ",topo=" + j.Config.Topology.String()
	}
	work := j.Kernel
	if j.Trace != "" {
		work = "replay:" + j.Trace
	} else if j.Seed != 0 {
		work = fmt.Sprintf("%s~%d", j.Kernel, j.Seed)
	}
	return fmt.Sprintf("%s/%s(vp=%s,steer=%s%s)@%d",
		displayName(j.Config), work, j.Config.VP, j.Config.Steering, topo, j.EffectiveScale())
}

// Via reports how a job's result was resolved. The service layer uses
// it to attribute work to tenants: only ViaSimulated occupied a worker,
// ViaCache cost one disk read, ViaMemo cost nothing.
type Via uint8

const (
	// ViaSimulated: the job ran through the timing simulator.
	ViaSimulated Via = iota
	// ViaMemo: served by the in-process memo (including duplicates that
	// waited on an in-flight simulation).
	ViaMemo
	// ViaCache: served by the persistent Cache without simulating.
	ViaCache
)

func (v Via) String() string {
	switch v {
	case ViaMemo:
		return "memo"
	case ViaCache:
		return "cache"
	default:
		return "simulated"
	}
}

// Result pairs a job with its outcome.
type Result struct {
	Job Job
	Res stats.Results
	Err error
	// Via records whether the result came from the simulator, the
	// in-process memo, or the persistent cache.
	Via Via
}

// Grid declares a cross-product of configurations, kernels and scales.
type Grid struct {
	Configs []config.Config
	Kernels []string
	Scales  []int
}

// Jobs expands the grid in row-major (config, kernel, scale) order. A
// nil Scales field means scale 1.
func (g Grid) Jobs() []Job {
	scales := g.Scales
	if len(scales) == 0 {
		scales = []int{1}
	}
	jobs := make([]Job, 0, len(g.Configs)*len(g.Kernels)*len(scales))
	for _, c := range g.Configs {
		for _, k := range g.Kernels {
			for _, s := range scales {
				jobs = append(jobs, Job{Config: c, Kernel: k, Scale: s})
			}
		}
	}
	return jobs
}

// FirstErr returns the first failed result in grid order, annotated
// with the job that produced it, or nil if every job succeeded.
func FirstErr(rs []Result) error {
	for _, r := range rs {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Job, r.Err)
		}
	}
	return nil
}

// Options configure an Engine.
type Options struct {
	// Workers bounds concurrent simulations; <=0 means GOMAXPROCS.
	Workers int
	// Run overrides the simulator (tests inject counting or failing
	// stubs); nil means the real trace-driven timing simulator.
	Run func(Job) (stats.Results, error)
	// Progress, when non-nil, receives one line per executed
	// (non-memoized) job. Memo hits are silent.
	Progress io.Writer
	// Cache, when non-nil, persists results across engines keyed by
	// Job.Fingerprint(): a memo miss consults the cache before
	// simulating, and every successful simulation is written back.
	// Cache hits do not count as executed jobs and do not occupy a
	// worker. Put failures are counted (CachePutErrors) but never fail
	// the job — a full disk degrades the cache, not the grid.
	Cache *Cache
}

// entry is one memo slot; ready closes once res/err are set, so
// duplicate jobs in flight wait instead of re-simulating.
type entry struct {
	job   Job
	ready chan struct{}
	res   stats.Results
	err   error
	via   Via // how the claiming goroutine resolved the slot
}

// Engine executes jobs with memoization. It is safe for concurrent use;
// the memo persists across Run calls, which is how cmd/experiments
// shares baselines between figures under -exp all.
type Engine struct {
	workers  int
	run      func(Job) (stats.Results, error)
	progress io.Writer
	cache    *Cache
	sem      chan struct{}

	mu   sync.Mutex
	memo map[string]*entry

	// claimed counts memo slots ever claimed (simulations started or
	// queued); finished counts simulations completed. Progress lines
	// print [finished/claimed], which stays consistent under
	// concurrent Run calls because each unique job is counted exactly
	// once, at claim time.
	claimed  int64
	finished int64
	// cacheHits counts memo misses served from the persistent cache
	// without simulating; cachePutErrs counts failed write-backs.
	cacheHits    int64
	cachePutErrs int64
	// simInstrs accumulates committed instructions across executed
	// simulations (memo and cache hits add nothing — no instructions
	// were simulated for them).
	simInstrs uint64
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	run := opts.Run
	if run == nil {
		run = Simulate
	}
	return &Engine{
		workers:  w,
		run:      run,
		progress: opts.Progress,
		cache:    opts.Cache,
		sem:      make(chan struct{}, w),
		memo:     make(map[string]*entry),
	}
}

// Workers reports the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// Executed reports how many jobs have actually been simulated (memo
// and cache misses) over the engine's lifetime.
func (e *Engine) Executed() int64 { return atomic.LoadInt64(&e.finished) }

// CacheHits reports how many memo misses were served from the
// persistent Cache without simulating.
func (e *Engine) CacheHits() int64 { return atomic.LoadInt64(&e.cacheHits) }

// CachePutErrors reports how many cache write-backs failed (the jobs
// themselves still succeeded).
func (e *Engine) CachePutErrors() int64 { return atomic.LoadInt64(&e.cachePutErrs) }

// SimInstructions reports the total committed instructions across every
// simulation the engine actually executed — the numerator of a
// sim-instrs/s throughput figure. Memo and cache hits add nothing.
func (e *Engine) SimInstructions() uint64 { return atomic.LoadUint64(&e.simInstrs) }

// MemoEntries reports how many fingerprints the memo holds, resolved
// or in flight. The memo lets go only of file-system failures, so on a
// long-lived engine this is nearly every distinct job it has run.
func (e *Engine) MemoEntries() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.memo)
}

// Run executes the jobs and returns results in job order. Duplicate
// jobs — within this call or against earlier calls on the same engine —
// are simulated once and share the memoized result. Per-job errors are
// reported in the results; use FirstErr to collapse them.
func (e *Engine) Run(jobs []Job) []Result {
	out := make([]Result, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			out[i] = e.RunKeyed(j.Keyed())
			out[i].Job = j
		}(i, j)
	}
	wg.Wait()
	return out
}

// RunKeyed resolves one keyed job (see Job.Keyed) on the caller's
// goroutine through the memo, simulating at most once per fingerprint.
// Only the goroutine that claims the memo slot takes a worker token;
// duplicates block on ready without occupying the pool. The result's
// Via distinguishes the claiming resolution (simulated or cache) from
// duplicates, which always report a memo hit.
//
// A failure the job determines (validation, the watchdog, a corrupt
// trace) stays memoized. One that came from the file system — an error
// wrapping an *fs.PathError or a syscall.Errno, such as a failed open
// or read of a stored trace — is handed to the duplicates already
// waiting on it, then dropped from the memo, so the next request for
// the fingerprint runs again.
func (e *Engine) RunKeyed(j Job) Result {
	res, err, via := e.one(j)
	return Result{Job: j, Res: res, Err: err, Via: via}
}

func (e *Engine) one(j Job) (stats.Results, error, Via) {
	fp := j.Fingerprint()
	e.mu.Lock()
	if ent, ok := e.memo[fp]; ok {
		e.mu.Unlock()
		<-ent.ready
		return ent.res, ent.err, ViaMemo
	}
	ent := &entry{job: j, ready: make(chan struct{})}
	e.memo[fp] = ent
	e.mu.Unlock()

	// Persistent-cache lookup happens outside the worker pool: a hit
	// costs one read, never a simulation slot, and stays out of the
	// [finished/claimed] progress accounting like memo hits do.
	if e.cache != nil {
		if res, ok := e.cache.Get(fp); ok {
			ent.res = res
			ent.via = ViaCache
			atomic.AddInt64(&e.cacheHits, 1)
			close(ent.ready)
			return ent.res, nil, ViaCache
		}
	}
	atomic.AddInt64(&e.claimed, 1)

	e.sem <- struct{}{}
	ent.res, ent.err = e.run(j)
	<-e.sem
	atomic.AddUint64(&e.simInstrs, ent.res.Instructions)

	if e.cache != nil && ent.err == nil {
		if err := e.cache.Put(fp, ent.res); err != nil {
			atomic.AddInt64(&e.cachePutErrs, 1)
		}
	}

	k := atomic.AddInt64(&e.finished, 1)
	if ioFailure(ent.err) {
		e.mu.Lock()
		delete(e.memo, fp)
		e.mu.Unlock()
	}
	close(ent.ready)

	if e.progress != nil {
		n := atomic.LoadInt64(&e.claimed)
		if ent.err != nil {
			fmt.Fprintf(e.progress, "[%d/%d] %s: error: %v\n", k, n, j, ent.err)
		} else {
			fmt.Fprintf(e.progress, "[%d/%d] %s: IPC=%.3f cycles=%d\n", k, n, j, ent.res.IPC(), ent.res.Cycles)
		}
	}
	return ent.res, ent.err, ViaSimulated
}

// ioFailure reports whether err came from the file system rather than
// from the job, so a later run of the same job may succeed.
func ioFailure(err error) bool {
	var pe *fs.PathError
	var errno syscall.Errno
	return errors.As(err, &pe) || errors.As(err, &errno)
}

// Snapshot returns every completed unique job the engine has run, in a
// deterministic order (sorted by fingerprint), one Result per memo
// entry. This is the full result grid that -out exports.
func (e *Engine) Snapshot() []Result {
	e.mu.Lock()
	fps := make([]string, 0, len(e.memo))
	for fp, ent := range e.memo {
		select {
		case <-ent.ready:
			fps = append(fps, fp)
		default: // still in flight; skip
		}
	}
	sort.Strings(fps)
	out := make([]Result, len(fps))
	for i, fp := range fps {
		ent := e.memo[fp]
		out[i] = Result{Job: ent.job, Res: ent.res, Err: ent.err, Via: ent.via}
	}
	e.mu.Unlock()
	return out
}

// DefaultArenaBudget bounds the process-wide decoded-trace arena every
// default simulation replays through (grid engines, the clusterd
// service, clustervp.RunTraceFile): distinct trace digests are decoded
// into the in-memory form until this many bytes are resident;
// everything past the budget streams from its file through a Reader.
const DefaultArenaBudget int64 = 256 << 20

var defaultArena = trace.NewArena(DefaultArenaBudget)

// openTraceSource resolves the replay Source for a .cvt file. In order
// of preference: a Cursor over the arena-resident decoded form (decoded
// once per distinct content digest, shared read-only by every job), a
// fresh decode admitted to the arena, or — when the arena is full or
// the trace does not fit its remaining budget (ErrNoMemForm) — the
// file's own Reader, which decodes block by block as the simulation
// consumes it. All three yield byte-identical record streams. It
// returns the source, the trace's header name, the materialization mode
// ("arena", "decode" or "stream" — span attribute material for the
// tracing layer), and a close func (nil when nothing needs closing).
func openTraceSource(path string, arena *trace.Arena) (trace.Source, string, string, func() error, error) {
	key := traceDigest(path)
	if mt := arena.Get(key); mt != nil {
		return mt.NewCursor(), mt.Name(), SourceArena, nil, nil
	}
	if budget := arena.Remaining(); budget > 0 {
		fr, err := trace.OpenFile(path)
		if err != nil {
			return nil, "", "", nil, err
		}
		mt, derr := trace.ReadMemCapped(fr.Reader, budget)
		cerr := fr.Close()
		if derr == nil && cerr == nil {
			// Concurrent decodes of one digest can race here; the
			// loser's work is wasted but the shared survivor is
			// identical, so results never depend on who won.
			arena.Add(key, mt)
			return mt.NewCursor(), mt.Name(), SourceDecode, nil, nil
		}
		if derr != nil && !errors.Is(derr, trace.ErrNoMemForm) {
			return nil, "", "", nil, derr
		}
		// Over budget: stream instead.
	}
	fr, err := trace.OpenFile(path)
	if err != nil {
		return nil, "", "", nil, err
	}
	return fr, fr.Name(), SourceStream, fr.Close, nil
}

// Trace-materialization modes reported by newSim and recorded as the
// sim.materialize span's "source" attribute.
const (
	// SourceArena: replayed from the already-decoded arena-resident form.
	SourceArena = "arena"
	// SourceDecode: decoded from the .cvt file and admitted to the arena.
	SourceDecode = "decode"
	// SourceStream: streamed from the .cvt file by its Reader.
	SourceStream = "stream"
	// SourceSynth: synthesized in-process from the kernel builder.
	SourceSynth = "synth"
)

// newSim builds the timing simulator for a job — replaying a .cvt
// trace file through arena when one is named, otherwise synthesizing
// the kernel in-process — on a Sim drawn from core.DefaultPool. It
// returns the materialization mode (Source*) plus the cleanup to run
// after simulation, which closes the source and returns the Sim to
// the pool.
func newSim(j Job, arena *trace.Arena) (*core.Sim, string, func() error, error) {
	var (
		src     trace.Source
		name    string
		mode    string
		closeFn func() error
	)
	if j.Trace != "" {
		s, hdrName, m, cfn, err := openTraceSource(j.Trace, arena)
		if err != nil {
			return nil, "", nil, err
		}
		src, mode, closeFn = s, m, cfn
		name = j.Kernel
		if name == "" {
			name = hdrName
		}
	} else {
		prog, err := workload.Build(j.Kernel, j.EffectiveScale(), j.Seed)
		if err != nil {
			return nil, "", nil, err
		}
		src = trace.NewExecutor(prog)
		name = prog.Name
		mode = SourceSynth
	}
	sim, err := core.DefaultPool.Get(j.Config, src, name)
	if err != nil {
		if closeFn != nil {
			closeFn()
		}
		return nil, "", nil, err
	}
	cleanup := func() error {
		var cerr error
		if closeFn != nil {
			cerr = closeFn()
		}
		core.DefaultPool.Put(sim)
		return cerr
	}
	return sim, mode, cleanup, nil
}

// warmupProbeInterval is the progress period a traced simulation falls
// back to when the caller wants no progress events: frequent enough to
// end the sim.warmup span near the first commit, rare enough to stay
// invisible in the cycle loop.
const warmupProbeInterval = 10_000

// simulate runs one job through the timing simulator, replaying traces
// through arena. fn, when non-nil, receives a progress snapshot every
// `every` cycles. A non-nil parent adds span instrumentation: a
// sim.materialize child covering trace-source setup (attributed with
// the Source* mode), and a sim.run child covering the simulation
// itself, with a sim.warmup sub-span ended at the first progress
// snapshot that shows committed instructions and the coarse
// phase-cycle split (core.Sim.PhaseCycles) attached as attributes.
// Spans start and end outside the cycle loop; with a nil parent the
// span calls are nil no-ops, and no callback is installed unless fn is
// set.
func simulate(j Job, every int64, fn func(core.Progress), parent *obs.ActiveSpan, arena *trace.Arena) (stats.Results, error) {
	mat := parent.StartChild("sim.materialize")
	sim, mode, cleanup, err := newSim(j, arena)
	mat.SetAttr("source", mode)
	if j.Trace != "" {
		mat.SetAttr("trace", j.Trace)
	}
	mat.End()
	if err != nil {
		return stats.Results{}, err
	}
	defer cleanup()
	if parent == nil {
		sim.SetProgress(every, fn)
		return sim.Run()
	}

	run := parent.StartChild("sim.run")
	warm := run.StartChild("sim.warmup")
	warmDone := false
	interval := every
	if interval <= 0 {
		interval = warmupProbeInterval
	}
	// The wrapper runs on the simulation goroutine (this goroutine), so
	// plain variables are safe. Ending a span allocates, but at most
	// once per job — never per cycle.
	sim.SetProgress(interval, func(p core.Progress) {
		if !warmDone && p.Instructions > 0 {
			warmDone = true
			warm.SetAttr("cycle", obs.FormatAttr(p.Cycle))
			warm.End()
		}
		if fn != nil {
			fn(p)
		}
	})
	res, rerr := sim.Run()
	warm.End() // no-op if the probe already ended it

	wu, st, dr := sim.PhaseCycles()
	run.SetAttr("phase_cycles_warmup", obs.FormatAttr(wu))
	run.SetAttr("phase_cycles_steady", obs.FormatAttr(st))
	run.SetAttr("phase_cycles_drain", obs.FormatAttr(dr))
	run.SetAttr("cycles", obs.FormatAttr(res.Cycles))
	run.SetAttr("instructions", obs.FormatAttr(res.Instructions))
	if rerr != nil {
		run.SetAttr("error", rerr.Error())
	}
	run.End()
	return res, rerr
}

// Simulate is the default Run function: stream the job's dynamic
// instructions — from a .cvt trace file when one is named, otherwise
// from an in-process functional execution of the kernel — through the
// timing simulator. It uses the process-wide Sim pool and decoded-trace
// arena; both are allocation optimizations only, with results
// byte-identical to cold construction over a plain reader
// (TestSimulatePoolArenaDeterminism).
func Simulate(j Job) (stats.Results, error) { return simulate(j, 0, nil, nil, defaultArena) }

// SimulateTraced is Simulate with a progress callback and span
// instrumentation: fn fires from the simulation goroutine every `every`
// cycles (the clusterd service streams these as job events; a
// non-positive interval or nil fn runs without progress), and when
// parent is non-nil, sim.materialize and sim.run child spans (with a
// sim.warmup sub-span and phase-cycle attributes) record where the
// job's wall-clock went. A nil parent records nothing.
func SimulateTraced(j Job, every int64, fn func(core.Progress), parent *obs.ActiveSpan) (stats.Results, error) {
	return simulate(j, every, fn, parent, defaultArena)
}
