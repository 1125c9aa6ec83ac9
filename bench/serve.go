package main

// The serve workloads: closed-loop clients against an in-process
// clusterd (service.New served on a loopback listener), alone or behind
// the fleet coordinator, plus the serial probe that measures those
// layers for workloads whose traffic does not reach them.

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/obs"
	"clustervp/internal/service"
	"clustervp/internal/service/client"
	"clustervp/internal/service/fleet"
)

const (
	// serveCallers closed-loop clients, one keep-alive connection each.
	serveCallers = 2
	// serveWorkers simulation workers per server or fleet replica. The
	// two callers keep at most two jobs in flight, so at most two
	// simulate at once either way. A replica worker runs memo hits as
	// well as simulations; with one worker per replica, a memo hit would
	// wait out any simulation on its replica, and that wait, not the
	// hop, would set serve-fleet's latency.
	serveWorkers  = 2
	fleetReplicas = 2
	// serveRate is how many requests the plan holds per timed second:
	// about what serve-skewed completes on a 2-core host. serve-fleet
	// completes about fleetShare of that, paying the coordinator hop on
	// every request, and runs that prefix of the same sequence.
	serveRate  = 1100
	fleetShare = 0.6
	// serveGuard bounds the timed phase, in multiples of -seconds, on a
	// host too slow to finish the plan. The plan itself is the work:
	// first sights crowd the start of a Pitman–Yor sequence, so cutting
	// it at a deadline would leave a slow run a more simulation-heavy
	// prefix and amplify the slowdown.
	serveGuard = 4
)

// The fingerprint universe of the serve workloads: the cheaper half of
// the suite on four machines, so one simulation is tens of
// milliseconds and the cache tier can be rebuilt in every set-up.
var (
	serveSpecs = []config.MachineSpec{
		{Clusters: "1"},
		{Clusters: "2", VP: "stride"},
		{Clusters: "4", VP: "stride", Steering: "vpb"},
		{Clusters: "4"},
	}
	serveKernels = []string{"cjpeg", "djpeg", "epicdec", "epicenc", "mesatexgen", "pgpenc"}
)

// serveTasks gives every table of the plan its fingerprint. Within the
// cache tier and within the never-seen tables separately, the i-th
// table runs kernel i mod K of a seeded order on machine (i + i/K) mod
// M, for K kernels and M machines. K+1 and M are coprime, so every K·M
// tables hold each (kernel, machine) pair once and the work one class
// carries barely depends on the seed. The input seed makes every
// fingerprint distinct.
func serveTasks(seed uint64, tier []bool) ([]task, error) {
	rng := newRand(seed, streamServeTasks)
	order := rng.Perm(len(serveKernels))
	tasks := make([]task, len(tier))
	var next [2]int
	for t, inTier := range tier {
		c := 0
		if inTier {
			c = 1
		}
		i := next[c]
		next[c]++
		spec := serveSpecs[(i+i/len(order))%len(serveSpecs)]
		var err error
		tasks[t], err = newTask(spec, serveKernels[order[i%len(order)]], 1, inputSeed(seed, uint64(t)))
		if err != nil {
			return nil, err
		}
	}
	return tasks, nil
}

func runServe(e *env, fleetMode bool) (*result, error) {
	plan := planServe(e.o.seed, e.sz.requests)
	tasks, err := serveTasks(e.o.seed, plan.tier)
	if err != nil {
		return nil, err
	}
	n, workers := len(plan.seq), serveWorkers
	if fleetMode {
		n, workers = int(float64(n)*fleetShare), serveWorkers*fleetReplicas
	}
	// Tables are numbered by first appearance, so the first
	// tableCount(seq[:n]) of them are all the first n requests ask for.
	var tier []task
	for t := range tableCount(plan.seq[:n]) {
		if plan.tier[t] {
			tier = append(tier, tasks[t])
		}
	}
	ring := 0 // the servers' default span ring when untraced
	if e.spans != nil {
		ring = 8*len(plan.seq) + 4096
	}
	res := &result{tasks: tasks, workers: workers, served: true, fleet: fleetMode}
	var st *stack
	defer func() { st.close() }()
	for i := 0; i < e.sz.setupReps; i++ {
		st.close()
		st = nil
		start := time.Now()
		dir := filepath.Join(e.dir, fmt.Sprintf("serve-%d", i))
		if err := fillCache(dir, tier); err != nil {
			return nil, err
		}
		if st, err = startStack(dir, fleetMode, ring); err != nil {
			return nil, err
		}
		runtime.GC()
		res.setup = append(res.setup, time.Since(start))
	}

	cls := newClients(st.url, serveCallers)
	defer cls.close()
	res.ops, res.wall, res.heap = closedLoop(serveCallers, n, serveGuard*e.sz.timed, func(c, pos int) op {
		return request(cls.c[c], tasks, int(plan.seq[pos]), plan.class[pos], pos, e.spans)
	})
	if e.spans != nil {
		res.spans.addCollector(e.spans)
		if err := st.collect(&res.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fillCache simulates the cache tier into dir with a throwaway server,
// the way an earlier server over the same cache directory would have.
func fillCache(dir string, tier []task) error {
	st, err := startStack(dir, false, 0)
	if err != nil {
		return err
	}
	defer st.close()
	cls := newClients(st.url, serveCallers)
	defer cls.close()
	ops, _, _ := closedLoop(serveCallers, len(tier), 0, func(c, pos int) op {
		return request(cls.c[c], tier, pos, classSim, pos, nil)
	})
	for _, o := range ops {
		if o.err != nil {
			return fmt.Errorf("filling the cache tier: %s: %w", tier[o.task].id(), o.err)
		}
	}
	return nil
}

// request runs one job through the serving stack the client talks to,
// from submission to its final status. With spans, a root span covers
// the call and its traceparent rides every HTTP request, so the
// server-side spans of the job join its trace.
func request(cl *client.Client, tasks []task, ti int, class string, pos int, spans *obs.Collector) op {
	sp := spans.StartRoot("bench.request", obs.SpanContext{})
	sp.SetAttr("class", class)
	ctx := obs.NewContext(context.Background(), sp)
	o := op{pos: pos, task: ti, class: class, start: time.Now()}
	st, err := cl.Run(ctx, tasks[ti].request())
	o.end = time.Now()
	sp.End()
	switch {
	case err != nil:
		o.err = err
	case st.State != service.StateDone || st.Results == nil:
		o.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	default:
		o.res = *st.Results
	}
	return o
}

// clients are closed-loop callers' API clients, each on its own
// transport so each keeps its own keep-alive connection.
type clients struct {
	c  []*client.Client
	tr []*http.Transport
}

func newClients(url string, n int) clients {
	var cs clients
	for i := 0; i < n; i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		cs.tr = append(cs.tr, tr)
		cs.c = append(cs.c, client.New(url, client.WithHTTPClient(&http.Client{Transport: tr})))
	}
	return cs
}

func (cs clients) close() {
	for _, tr := range cs.tr {
		tr.CloseIdleConnections()
	}
}

// stack is an in-process serving stack: one clusterd, or a fleet
// coordinator over fleetReplicas replicas sharing one cache directory.
// url is where clients connect.
type stack struct {
	servers   []*service.Server
	coord     *fleet.Coordinator
	listeners []*http.Server
	served    []chan struct{} // closed when the matching listener's Serve returns
	url       string
}

func startStack(dir string, fleetMode bool, ring int) (*stack, error) {
	replicas := 1
	if fleetMode {
		replicas = fleetReplicas
	}
	st := &stack{}
	var urls []string
	for i := 0; i < replicas; i++ {
		srv, err := service.New(service.Options{Workers: serveWorkers, CacheDir: filepath.Join(dir, "cache"), SpanRing: ring})
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		u, err := st.serve(srv.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	st.url = urls[0]
	if fleetMode {
		co, err := fleet.New(fleet.Options{Replicas: urls, SpanRing: ring})
		if err != nil {
			st.close()
			return nil, err
		}
		st.coord = co
		if st.url, err = st.serve(co.Handler()); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// serve exposes h on a fresh loopback port and returns its base URL.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	st.listeners = append(st.listeners, hs)
	st.served = append(st.served, done)
	return "http://" + ln.Addr().String(), nil
}

// close stops the coordinator, the listeners and the servers, in that
// order, and waits for each. A nil stack is a no-op.
func (st *stack) close() {
	if st == nil {
		return
	}
	if st.coord != nil {
		st.coord.Close()
	}
	for i, hs := range st.listeners {
		hs.Close()
		<-st.served[i]
	}
	for _, s := range st.servers {
		s.Close()
	}
}

// collect adds the stack's finished spans to ss: the servers' rings
// directly, the coordinator's through /v1/tracez.
func (st *stack) collect(ss *spanSet) error {
	for _, s := range st.servers {
		ss.clusterd = append(ss.clusterd, s.Spans().Recent(0)...)
		ss.dropped += s.Spans().Dropped()
	}
	if st.coord == nil {
		return nil
	}
	tz, err := client.New(st.url).Tracez(context.Background(), "", math.MaxInt32)
	if err != nil {
		return fmt.Errorf("coordinator spans: %w", err)
	}
	ss.coord = append(ss.coord, tz.Spans...)
	ss.dropped += tz.Dropped
	return nil
}

// probeStack measures a serving stack the workload's own traffic does
// not reach: serial requests for each probe task (simulated), the same
// again (memo hits), then again on a restarted stack over the same cache
// directory (disk-cache hits).
func probeStack(dir string, fleetMode bool, tasks []task) (spanSet, error) {
	var ss spanSet
	spans := obs.NewCollector("bench", 4*len(tasks)+16)
	for _, classes := range [][]string{{classSim, classMemo}, {classCache}} {
		if err := probePass(dir, fleetMode, tasks, classes, spans, &ss); err != nil {
			return ss, fmt.Errorf("probing the serving stack (fleet=%t): %w", fleetMode, err)
		}
	}
	ss.addCollector(spans)
	return ss, nil
}

// probePass starts a stack over dir and sends every task once per class,
// serially, then adds the stack's spans to ss.
func probePass(dir string, fleetMode bool, tasks []task, classes []string, spans *obs.Collector, ss *spanSet) error {
	st, err := startStack(dir, fleetMode, 64*len(tasks)+256)
	if err != nil {
		return err
	}
	defer st.close()
	cl := newClients(st.url, 1)
	defer cl.close()
	for _, c := range classes {
		for ti := range tasks {
			if o := request(cl.c[0], tasks, ti, c, ti, spans); o.err != nil {
				return o.err
			}
		}
	}
	return st.collect(ss)
}
