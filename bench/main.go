// Command bench is the clustervp benchmark. It drives each module
// through its public entry points from outside — the grid engine,
// trace materialization, the clusterd job server and its client, and
// the fleet coordinator — checks every simulated result, and prints
// each metric as "workload metric value unit", ending with one JSON
// line that holds them all.
//
//	bench -workload sweep-synth -seed 1 -seconds 15 -trace 0
//
// -trace 1 first measures the untraced run in a child process, then
// runs the workload again with spans around every call into a layer,
// prints the per-layer metrics and writes a Chrome trace. -workload all
// runs each workload in a child process of its own. README.md lists the
// workloads and metrics; run.sh builds and runs the command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"clustervp/internal/obs"
)

// maxProcs caps the Go scheduler: the load is sized for a 2-core host,
// two callers feeding two simulation workers.
const maxProcs = 2

// defaultSeconds is the timed phase of a run, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 15

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	chrome   string // Chrome trace file of a traced run
	workdir  string // parent of the run's scratch directory
}

// args renders o as command-line flags, for a child process.
func (o options) args() []string {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	a := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-workdir", o.workdir}
	if o.chrome != "" {
		a = append(a, "-chrome", o.chrome)
	}
	return a
}

// sizes scales one run. defaultSizes derives them from -seconds; the
// smoke test shrinks them.
type sizes struct {
	timed        time.Duration
	setupReps    int // set-up repetitions (0: the workload's own count)
	requests     int // requests in a serve plan
	probeKernels int // kernels in the lower-layer probe (0: all of the workload's)
	probeTasks   int // tasks in the serial service and fleet probes
}

func defaultSizes(seconds float64) sizes {
	return sizes{
		timed:      time.Duration(seconds * float64(time.Second)),
		requests:   int(seconds * serveRate),
		probeTasks: 6,
	}
}

// env is one workload run's context.
type env struct {
	o     options
	sz    sizes
	dir   string         // scratch directory, removed when the run ends
	spans *obs.Collector // the benchmark's own spans; nil when untraced
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	var rep *report
	switch {
	case o.workload == "all":
		rep, err = runAll(o, stdout, stderr)
	case o.trace:
		rep, err = runTraced(o, stderr)
	default:
		rep, err = runOne(o, defaultSizes(o.seconds))
	}
	if err == nil {
		err = rep.write(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.chrome, "chrome", "", "Chrome trace file of a traced run (default .bench_build/<workload>.trace.json)")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for the run's scratch files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	var bad error
	if _, ok := findWorkload(o.workload); !ok && o.workload != "all" {
		bad = fmt.Errorf("unknown workload %q (want %s or all)", o.workload, strings.Join(names, ", "))
	} else if trace != 0 && trace != 1 {
		bad = fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	} else if !(o.seconds > 0) {
		bad = fmt.Errorf("-seconds must be positive")
	} else if fs.NArg() > 0 {
		bad = fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if bad != nil {
		fmt.Fprintln(stderr, "bench:", bad)
		fs.Usage()
	}
	return o, bad
}

// runOne runs one workload in this process: set-up, the timed phase,
// verification, then the end-to-end metrics, or for a traced run the
// per-layer metrics and the Chrome trace.
func runOne(o options, sz sizes) (*report, error) {
	w, _ := findWorkload(o.workload)
	if err := os.MkdirAll(o.workdir, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if sz.setupReps == 0 {
		sz.setupReps = w.setups
	}
	e := &env{o: o, sz: sz, dir: dir}
	if o.trace {
		e.spans = obs.NewCollector("bench", 1<<16+8*sz.requests)
	}
	res, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}

	rep := newReport(o.workload)
	rep.Attempted = len(res.ops)
	var why string
	rep.Failed, why = newChecker(o.seed).verify(res.ops, res.tasks)
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	if why != "" {
		rep.notes = append(rep.notes, "first failure: "+why)
	}
	rep.headline = float64(len(res.ops)) / res.wall.Seconds()
	if !o.trace {
		endToEnd(rep, res)
		return rep, nil
	}
	if err := perLayer(e, rep, res); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	return rep, nil
}

// endToEnd sets the metrics a user of the system sees.
func endToEnd(rep *report, res *result) {
	var instrs uint64
	lat := make([]float64, len(res.ops))
	for i, o := range res.ops {
		lat[i] = millis(o.latency())
		if o.class == classSim {
			instrs += o.res.Instructions
		}
	}
	sec := res.wall.Seconds()
	rep.set("ops_per_s", rep.headline, "1/s", fmt.Sprintf("%d ops in %.2f s", len(res.ops), sec))
	rep.set("sim_minstr_per_s", float64(instrs)/sec/1e6, "Minstr/s", "")
	rep.setTiming("lat_p50_ms", lat, 0.5)
	rep.set("heap_mb", median(res.heap), "MB", fmt.Sprintf("median of %d samples, max %.4g MB", len(res.heap), quantile(res.heap, 1)))
	setup := make([]float64, len(res.setup))
	for i, d := range res.setup {
		setup[i] = d.Seconds()
	}
	rep.set("setup_s", median(setup), "s", fmt.Sprintf("median of %d set-ups, %.4g..%.4g s",
		len(setup), quantile(setup, 0), quantile(setup, 1)))
	if res.served {
		// The ledger classes, for reading; the traced run reports them
		// as service-layer metrics.
		for _, class := range []string{classMemo, classCache, classSim} {
			var xs []float64
			for _, o := range res.ops {
				if o.class == class {
					xs = append(xs, millis(o.latency()))
				}
			}
			p := tailPercentile(len(xs))
			rep.notes = append(rep.notes, fmt.Sprintf("%s requests: n=%d p50=%.3f ms p%g=%.3f ms",
				class, len(xs), median(xs), p, quantile(xs, p/100)))
		}
	}
}

// perLayer sets the per-layer metrics of a traced run, probing the
// layers the workload's traffic did not reach, and writes every span
// to the Chrome trace.
func perLayer(e *env, rep *report, res *result) error {
	lt, err := probeLayers(probeTasks(res.tasks, e.sz.probeKernels))
	if err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	lt.report(rep)
	runnerLayer(rep, res)

	probes := probeTasks(res.tasks, e.sz.probeTasks)
	svc, flt := res.spans, res.spans
	if !res.served {
		if svc, err = probeStack(filepath.Join(e.dir, "probe-service"), false, probes); err != nil {
			return err
		}
	}
	if !res.fleet {
		if flt, err = probeStack(filepath.Join(e.dir, "probe-fleet"), true, probes); err != nil {
			return err
		}
	}
	serviceLayer(rep, svc)
	fleetLayer(rep, flt)

	spans := res.spans.all()
	dropped := res.spans.dropped
	if !res.served {
		spans = append(spans, svc.all()...)
		dropped += svc.dropped
	}
	if !res.fleet {
		spans = append(spans, flt.all()...)
		dropped += flt.dropped
	}
	rep.set("bench.spans_dropped", float64(dropped), "count", fmt.Sprintf("of %d spans", len(spans)))

	path := e.o.chrome
	if path == "" {
		path = filepath.Join(".bench_build", e.o.workload+".trace.json")
	}
	if err := writeChrome(path, spans); err != nil {
		return err
	}
	rep.notes = append(rep.notes, "Chrome trace: "+path)
	return nil
}

func writeChrome(path string, spans []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced measures the untraced run in a child process, then runs the
// workload traced here and reports how much tracing slowed it.
func runTraced(o options, stderr io.Writer) (*report, error) {
	u := o
	u.trace = false
	base, _, err := runChild(u, stderr)
	if err != nil {
		return nil, err
	}
	rep, err := runOne(o, defaultSizes(o.seconds))
	if err != nil {
		return nil, err
	}
	addOverhead(rep, base)
	return rep, nil
}

// addOverhead reports the traced run's throughput loss against the
// untraced run, and folds the untraced run's verdict into the traced one.
func addOverhead(traced, untraced *report) {
	base := untraced.Metrics["ops_per_s"].Value
	traced.set("bench.trace_overhead_pct", 100*(base-traced.headline)/base, "%",
		fmt.Sprintf("untraced %.4g ops/s, traced %.4g ops/s", base, traced.headline))
	traced.Correct = traced.Correct && untraced.Correct
}

// runAll runs every workload in a child process of its own, so none
// starts with the trace arena, Sim pool or heap another one left, and
// merges their results.
func runAll(o options, stdout, stderr io.Writer) (*report, error) {
	all := newReport("all")
	all.Correct = true
	all.quiet = true
	for _, w := range workloads {
		c := o
		c.workload = w.name
		rep, lines, err := runChild(c, stderr)
		if err != nil {
			return nil, err
		}
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		all.Correct = all.Correct && rep.Correct
		for name, m := range rep.Metrics {
			all.Metrics[w.name+"."+name] = m
		}
	}
	return all, nil
}

// runChild runs this program with o and returns the report of its last
// output line and the lines before it.
func runChild(o options, stderr io.Writer) (*report, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, o.args()...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	rep := newReport(o.workload)
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), rep); err != nil {
		return nil, nil, fmt.Errorf("%s: reading the result line: %w", o.workload, err)
	}
	return rep, lines[:len(lines)-1], nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// report is one run's output: a line per metric, then the JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	headline float64  // ops/s of the timed phase
	notes    []string // extra lines for readers
	quiet    bool     // print only the JSON line
}

func newReport(workload string) *report {
	return &report{workload: workload, Metrics: map[string]metric{}}
}

// set records a metric. A value with no samples behind it (NaN) is
// reported as 0 so the JSON line stays valid; its note says n=0.
func (r *report) set(name string, v float64, unit, note string) {
	if v != v {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, note: note}
}

// setTiming records the q-quantile of millisecond samples, noting the
// sample count and the highest percentile with at least minTail
// samples beyond it.
func (r *report) setTiming(name string, ms []float64, q float64) {
	p := tailPercentile(len(ms))
	r.set(name, quantile(ms, q), "ms", fmt.Sprintf("n=%d p%g=%.4g", len(ms), p, quantile(ms, p/100)))
}

func (r *report) write(w io.Writer) error {
	if !r.quiet {
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := r.Metrics[n]
			line := fmt.Sprintf("%s %s %s %s", r.workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
			if m.note != "" {
				line += " # " + m.note
			}
			fmt.Fprintln(w, line)
		}
		for _, n := range r.notes {
			fmt.Fprintf(w, "%s # %s\n", r.workload, n)
		}
		fmt.Fprintf(w, "%s # attempted=%d failed=%d correct=%t\n", r.workload, r.Attempted, r.Failed, r.Correct)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
