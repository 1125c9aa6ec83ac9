package main

// The sweep workloads: design-space grids (configs × kernels) run
// through a cold-memo grid engine, the way cmd/experiments uses it.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"clustervp"
	"clustervp/internal/config"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
)

const (
	// sweepWorkers is both the engine's worker bound and the number of
	// closed-loop callers feeding it.
	sweepWorkers = 2
	synthScale   = 1
	// replayScale keeps the whole replay suite (about 70 MB decoded)
	// inside the engine's default 256 MiB trace arena, so the choice
	// between arena and stream cannot depend on goroutine order.
	replayScale = 2
)

// synthSpecs is the sweep-synth grid, a cut of the paper's figures:
// 1/2/4 clusters × none/stride/perfect VP × baseline/VPB steering, plus
// communication latency 2/4, 1/2 paths and 256/1K-entry VP tables on
// the clustered machines.
var synthSpecs = func() []config.MachineSpec {
	var specs []config.MachineSpec
	for _, c := range []string{"1", "2", "4"} {
		for _, vp := range []string{"none", "stride", "perfect"} {
			for _, st := range []string{"baseline", "vpb"} {
				specs = append(specs, config.MachineSpec{Clusters: c, VP: vp, Steering: st})
			}
		}
	}
	for _, c := range []string{"2", "4"} {
		for _, knob := range []config.MachineSpec{{CommLatency: 2}, {CommLatency: 4}, {CommPaths: 1}, {CommPaths: 2}} {
			plain, vp := knob, knob
			plain.Clusters, vp.Clusters, vp.VP, vp.Steering = c, c, "stride", "vpb"
			specs = append(specs, plain, vp)
		}
		for _, entries := range []int{256, 1024} {
			specs = append(specs, config.MachineSpec{Clusters: c, VP: "stride", Steering: "vpb", VPTableEntries: entries})
		}
	}
	return specs
}()

// replaySpecs is the sweep-replay grid: every trace replays under each.
var replaySpecs = []config.MachineSpec{
	{Clusters: "1"},
	{Clusters: "2"},
	{Clusters: "2", VP: "stride"},
	{Clusters: "2", VP: "stride", Steering: "vpb"},
	{Clusters: "2", VP: "perfect", Steering: "vpb"},
	{Clusters: "4"},
	{Clusters: "4", VP: "stride"},
	{Clusters: "4", VP: "stride", Steering: "vpb"},
	{Clusters: "4", VP: "perfect", Steering: "vpb"},
	{Clusters: "4", VP: "stride", Steering: "vpb", CommLatency: 2},
	{Clusters: "4", VP: "stride", Steering: "vpb", CommLatency: 4},
	{Clusters: "4", VP: "stride", Steering: "vpb", CommPaths: 1},
}

// sweepTasks lays the whole grid out in rounds. Each round runs every
// kernel once, each under a configuration drawn without replacement for
// that kernel, so any prefix of the sequence holds every kernel equally
// often (±1): where the deadline cuts the sequence barely changes the
// job mix a run measures. Each kernel keeps one input seed across the
// grid, as a sweep over one input set does.
func sweepTasks(seed uint64, specs []config.MachineSpec, kernels []string, scale int) ([]task, error) {
	rng := newRand(seed, streamSweep)
	perms := make([][]int, len(kernels))
	for k := range perms {
		perms[k] = rng.Perm(len(specs))
	}
	var tasks []task
	for r := range specs {
		for _, k := range rng.Perm(len(kernels)) {
			t, err := newTask(specs[perms[k][r]], kernels[k], scale, inputSeed(seed, uint64(k)))
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, t)
		}
	}
	return tasks, nil
}

func runSweep(e *env, replay bool) (*result, error) {
	specs, scale := synthSpecs, synthScale
	if replay {
		specs, scale = replaySpecs, replayScale
	}
	tasks, err := sweepTasks(e.o.seed, specs, clustervp.Kernels(), scale)
	if err != nil {
		return nil, err
	}
	res := &result{tasks: tasks, workers: sweepWorkers}
	for i := 0; i < e.sz.setupReps; i++ {
		start := time.Now()
		if replay {
			err = materialize(filepath.Join(e.dir, fmt.Sprintf("traces-%d", i)), tasks)
		} else {
			err = warmUp(specs)
		}
		if err != nil {
			return nil, err
		}
		runtime.GC()
		res.setup = append(res.setup, time.Since(start))
	}

	// Every lap over the grid gets a fresh engine, so no job is ever a
	// memo hit. A traced engine runs each job through
	// runner.SimulateTraced under the benchmark's root span for it, on
	// the same default trace arena and Sim pool as the untraced engine.
	var roots sync.Map // fingerprint → *obs.ActiveSpan
	opts := runner.Options{Workers: sweepWorkers}
	if e.spans != nil {
		opts.Run = func(j runner.Job) (stats.Results, error) {
			sp, _ := roots.Load(j.Fingerprint())
			parent, _ := sp.(*obs.ActiveSpan)
			return runner.SimulateTraced(j, 0, nil, parent)
		}
	}
	var mu sync.Mutex
	engines := map[int]*runner.Engine{}
	engineFor := func(lap int) *runner.Engine {
		mu.Lock()
		defer mu.Unlock()
		if engines[lap] == nil {
			engines[lap] = runner.New(opts)
		}
		return engines[lap]
	}
	res.ops, res.wall, res.heap = closedLoop(sweepWorkers, -1, e.sz.timed, func(_, pos int) op {
		ti := pos % len(tasks)
		j := tasks[ti].job()
		sp := e.spans.StartRoot("bench.job", obs.SpanContext{})
		if sp != nil {
			fp := j.Fingerprint()
			roots.Store(fp, sp)
			defer roots.Delete(fp)
		}
		o := op{pos: pos, task: ti, class: classSim, start: time.Now()}
		r := engineFor(pos / len(tasks)).Run([]runner.Job{j})[0]
		o.end = time.Now()
		sp.SetAttr("via", r.Via.String())
		sp.End()
		o.res, o.err = r.Res, r.Err
		return o
	})
	if e.spans != nil {
		res.spans.addCollector(e.spans)
	}
	return res, nil
}

// materialize writes every kernel instance of the grid to a .cvt file
// under dir, once however many configurations replay it, and points the
// tasks at the files.
func materialize(dir string, tasks []task) error {
	jobs := make([]runner.Job, len(tasks))
	for i, t := range tasks {
		t.trace = ""
		jobs[i] = t.job()
	}
	jobs, err := clustervp.MaterializeTraces(dir, jobs)
	if err != nil {
		return err
	}
	for i := range tasks {
		tasks[i].trace = jobs[i].Trace
	}
	return nil
}

// warmUp runs one job per worker on each machine shape of the grid
// through a throwaway engine, so the timed phase starts with a warm Sim
// pool and a grown heap, as any sweep does after its first few jobs.
// The jobs are the same under every seed, so set-up time does not
// depend on which jobs a seed puts first.
func warmUp(specs []config.MachineSpec) error {
	shapes := map[string]bool{}
	var jobs []runner.Job
	for _, s := range specs {
		if shapes[s.Clusters] {
			continue
		}
		shapes[s.Clusters] = true
		for w := range sweepWorkers {
			t, err := newTask(s, clustervp.Kernels()[0], synthScale, inputSeed(0, uint64(w)))
			if err != nil {
				return err
			}
			jobs = append(jobs, t.job())
		}
	}
	return runner.FirstErr(runner.New(runner.Options{Workers: sweepWorkers}).Run(jobs))
}
