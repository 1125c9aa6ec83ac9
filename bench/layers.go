package main

// Per-layer metrics derived from spans. Each layer's spans come from
// the workload's own traffic when it went through that layer, and from
// a serial probe of the layer otherwise (probeStack), so every traced
// run reports every layer.

import (
	"fmt"
	"strings"
	"time"

	"clustervp/internal/obs"
)

// named returns the spans whose name is name, or starts with it when
// name ends in a space ("job " matches every job span).
func named(spans []obs.Span, name string) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Name == name || strings.HasSuffix(name, " ") && strings.HasPrefix(s.Name, name) {
			out = append(out, s)
		}
	}
	return out
}

// withAttr keeps the spans whose attribute k is v.
func withAttr(spans []obs.Span, k, v string) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Attrs[k] == v {
			out = append(out, s)
		}
	}
	return out
}

func spanMillis(spans []obs.Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = millis(s.Duration())
	}
	return out
}

func total(spans []obs.Span) time.Duration {
	var t time.Duration
	for _, s := range spans {
		t += s.Duration()
	}
	return t
}

// byTrace indexes spans by trace id, keeping the first per trace.
func byTrace(spans []obs.Span) map[string]obs.Span {
	out := make(map[string]obs.Span, len(spans))
	for _, s := range spans {
		if _, ok := out[s.TraceID]; !ok {
			out[s.TraceID] = s
		}
	}
	return out
}

// runnerLayer reports the grid engine and the simulation under it. On
// sweeps a job is the benchmark's span around Engine.Run; behind a
// server it is clusterd's job.run span, which wraps the same call.
func runnerLayer(rep *report, res *result) {
	ss := res.spans
	jobs := named(ss.bench, "bench.job")
	if res.served {
		jobs = named(ss.clusterd, "job.run")
	}
	all := ss.all()
	mats, runs := named(all, "sim.materialize"), named(all, "sim.run")
	simulated := withAttr(jobs, "via", "simulated")

	lat := spanMillis(simulated)
	rep.setTiming("runner.job_ms.p50", lat, 0.5)
	rep.setTiming("runner.job_ms.p90", lat, 0.9)
	rep.set("runner.materialize_ms.mean", millis(total(mats))/float64(max(len(mats), 1)), "ms",
		fmt.Sprintf("n=%d", len(mats)))
	for _, src := range []string{"synth", "arena", "decode", "stream"} {
		rep.set("runner.source_count."+src, float64(len(withAttr(mats, "source", src))), "count", "")
	}
	rep.set("runner.worker_util", float64(total(jobs))/(float64(res.workers)*float64(res.wall)), "ratio", "")
	rep.set("runner.span_coverage", float64(total(mats)+total(runs))/float64(max(total(simulated), 1)), "ratio",
		"(sim.materialize + sim.run) / simulated job time")
	rep.set("runner.executed", float64(len(runs)), "count", "")
	rep.set("runner.memo_hits", float64(len(withAttr(jobs, "via", "memo"))), "count", "")
}

// serviceLayer reports clusterd: admission, queueing, execution by how
// the job resolved, delivery back to the client, and the client-side
// latency of each ledger class.
func serviceLayer(rep *report, ss spanSet) {
	rep.setTiming("service.submit_ms.p50", spanMillis(withAttr(ss.clusterd, "route", "POST /v1/jobs")), 0.5)
	wait := spanMillis(named(ss.clusterd, "queue.wait"))
	rep.setTiming("service.queue_wait_ms.p50", wait, 0.5)
	rep.setTiming("service.queue_wait_ms.p90", wait, 0.9)
	runs := named(ss.clusterd, "job.run")
	for _, via := range []string{"memo", "cache", "simulated"} {
		rep.setTiming("service.run_ms."+via+".p50", spanMillis(withAttr(runs, "via", via)), 0.5)
	}
	cache, sims := len(withAttr(runs, "via", "cache")), len(withAttr(runs, "via", "simulated"))
	rep.set("service.cache_hit_ratio", float64(cache)/float64(max(cache+sims, 1)), "ratio", "")
	rep.set("service.executed", float64(sims), "count", "")

	// Delivery runs from the end of the job the client talks to (the
	// coordinator's, in a fleet) to the client holding the final status.
	front := named(ss.clusterd, "job ")
	if len(ss.coord) > 0 {
		front = named(ss.coord, "job ")
	}
	jobEnd := byTrace(front)
	reqs := named(ss.bench, "bench.request")
	var deliver []float64
	for _, r := range reqs {
		if j, ok := jobEnd[r.TraceID]; ok {
			deliver = append(deliver, millis(r.End.Sub(j.End)))
		}
	}
	rep.setTiming("service.deliver_ms.p50", deliver, 0.5)
	for _, class := range []string{classMemo, classCache, classSim} {
		lat := spanMillis(withAttr(reqs, "class", class))
		rep.setTiming("service."+class+"_ms.p50", lat, 0.5)
		rep.setTiming("service."+class+"_ms.p90", lat, 0.9)
	}
}

// fleetLayer reports the coordinator: one dispatch attempt, the hop
// (coordinator job time less the replica job time it waited on),
// resubmissions and how evenly shards landed on the replicas.
func fleetLayer(rep *report, ss spanSet) {
	dispatch := named(ss.coord, "fleet.dispatch")
	rep.setTiming("fleet.dispatch_ms.p50", spanMillis(dispatch), 0.5)
	replicaJob := byTrace(named(ss.clusterd, "job "))
	var hop []float64
	for _, j := range named(ss.coord, "job ") {
		if r, ok := replicaJob[j.TraceID]; ok {
			hop = append(hop, millis(j.Duration()-r.Duration()))
		}
	}
	rep.setTiming("fleet.hop_ms.p50", hop, 0.5)
	resubmits := len(dispatch) - len(withAttr(dispatch, "attempt", "0"))
	rep.set("fleet.resubmits", float64(resubmits), "count", "")
	most, sum := 0, 0
	for i := 0; i < fleetReplicas; i++ {
		n := len(withAttr(withAttr(dispatch, "delivered", "true"), "replica", fmt.Sprintf("replica-%d", i)))
		most, sum = max(most, n), sum+n
	}
	rep.set("fleet.shard_skew", float64(most)*fleetReplicas/float64(max(sum, 1)), "ratio", "max/mean jobs per replica")
}
