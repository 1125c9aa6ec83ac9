package main

// Probes of the lower layers: serial calls to one layer's public
// function at a time, over one task per kernel of the workload.

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"clustervp"
	"clustervp/internal/core"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
)

// layerTimes accumulates probe time and work over the probe tasks.
type layerTimes struct {
	kernels                              int
	build, newExec, exec, reader, stream time.Duration
	decode, cursor, newSim, reset, run   time.Duration
	execBytes                            uint64
	records, instrs                      uint64
	cycles                               int64
	results                              []stats.Results
}

// probeTasks picks the first task of each kernel in sequence order,
// limited to n kernels (n <= 0: all).
func probeTasks(tasks []task, n int) []task {
	seen := map[string]bool{}
	var out []task
	for _, t := range tasks {
		if !seen[t.kernel] && (n <= 0 || len(out) < n) {
			seen[t.kernel] = true
			t.trace = ""
			out = append(out, t)
		}
	}
	return out
}

// probeLayers times, for each task: building the kernel, constructing
// and running the functional executor, decoding its encoded trace
// through the streaming, pipelined and decode-once readers, walking the
// decoded trace with a cursor, and constructing, running and resetting
// a Sim over that cursor.
func probeLayers(tasks []task) (layerTimes, error) {
	var lt layerTimes
	var d trace.DynInst
	for _, t := range tasks {
		start := time.Now()
		prog, err := clustervp.BuildKernelSeeded(t.kernel, t.scale, t.seed)
		lt.build += time.Since(start)
		if err != nil {
			return lt, err
		}

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start = time.Now()
		ex := trace.NewExecutor(prog)
		lt.newExec += time.Since(start)
		runtime.ReadMemStats(&ms)
		lt.execBytes += ms.TotalAlloc - before

		start = time.Now()
		var n uint64
		for ex.Next(&d) {
			n++
		}
		lt.exec += time.Since(start)
		if err := ex.Err(); err != nil {
			return lt, err
		}
		lt.records += n

		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, prog.Name, prog.Code)
		if err != nil {
			return lt, err
		}
		for ex = trace.NewExecutor(prog); ex.Next(&d); {
			if err := w.Write(&d); err != nil {
				return lt, err
			}
		}
		if err := w.Close(); err != nil {
			return lt, err
		}
		encoded := buf.Bytes()

		r, err := trace.NewReader(bytes.NewReader(encoded))
		if err != nil {
			return lt, err
		}
		start = time.Now()
		for r.Next(&d) {
		}
		lt.reader += time.Since(start)
		if err := readCheck(r.Err(), r.Count(), n); err != nil {
			return lt, err
		}

		if r, err = trace.NewReader(bytes.NewReader(encoded)); err != nil {
			return lt, err
		}
		p := trace.NewPipelined(r)
		start = time.Now()
		var piped uint64
		for p.Next(&d) {
			piped++
		}
		lt.stream += time.Since(start)
		perr := p.Err()
		p.Close()
		if err := readCheck(perr, piped, n); err != nil {
			return lt, err
		}

		if r, err = trace.NewReader(bytes.NewReader(encoded)); err != nil {
			return lt, err
		}
		start = time.Now()
		mt, err := trace.ReadMem(r)
		lt.decode += time.Since(start)
		if err != nil {
			return lt, err
		}

		c := mt.NewCursor()
		start = time.Now()
		var walked uint64
		for c.Next(&d) {
			walked++
		}
		lt.cursor += time.Since(start)
		if err := readCheck(nil, walked, n); err != nil {
			return lt, err
		}

		start = time.Now()
		sim, err := core.NewFromSource(t.cfg, mt.NewCursor(), prog.Name)
		lt.newSim += time.Since(start)
		if err != nil {
			return lt, err
		}
		start = time.Now()
		res, err := sim.Run()
		lt.run += time.Since(start)
		if err != nil {
			return lt, err
		}
		lt.instrs += res.Instructions
		lt.cycles += res.Cycles
		lt.results = append(lt.results, res)

		pool := core.NewPool()
		pool.Put(sim)
		start = time.Now()
		if _, err := pool.Get(t.cfg, mt.NewCursor(), prog.Name); err != nil {
			return lt, err
		}
		lt.reset += time.Since(start)
		lt.kernels++
	}
	return lt, nil
}

// readCheck fails a replay that erred or yielded a different number of
// records than the executor produced.
func readCheck(err error, got, want uint64) error {
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("replayed %d records of %d", got, want)
	}
	return nil
}

// report sets the probe metrics. Times per kernel are means; times per
// record or instruction are totals over totals.
func (lt layerTimes) report(rep *report) {
	k := float64(max(lt.kernels, 1))
	perRec := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(max(lt.records, 1)) }
	perKernel := func(d time.Duration, unit time.Duration) float64 { return float64(d) / float64(unit) / k }
	rep.set("workload.build_ms", perKernel(lt.build, time.Millisecond), "ms", "")
	rep.set("trace.executor_new_ms", perKernel(lt.newExec, time.Millisecond), "ms", "")
	rep.set("trace.executor_new_mb", float64(lt.execBytes)/(1<<20)/k, "MB", "")
	rep.set("trace.exec_ns_per_rec", perRec(lt.exec), "ns", "")
	rep.set("trace.reader_ns_per_rec", perRec(lt.reader), "ns", "")
	rep.set("trace.stream_ns_per_rec", perRec(lt.stream), "ns", "")
	rep.set("trace.decode_ns_per_rec", perRec(lt.decode), "ns", "")
	rep.set("trace.cursor_ns_per_rec", perRec(lt.cursor), "ns", "")
	rep.set("core.new_us", perKernel(lt.newSim, time.Microsecond), "us", "")
	rep.set("core.reset_us", perKernel(lt.reset, time.Microsecond), "us", "")
	runPerInstr := float64(lt.run.Nanoseconds()) / float64(max(lt.instrs, 1))
	rep.set("core.run_ns_per_instr", runPerInstr, "ns", "")
	rep.set("core.run_ns_per_cycle", float64(lt.run.Nanoseconds())/float64(max(lt.cycles, 1)), "ns", "")
	rep.set("core.self_ns_per_instr", runPerInstr-perRec(lt.cursor), "ns", "")

	agg := stats.Aggregate("probe", lt.results)
	note := fmt.Sprintf("%d kernels", lt.kernels)
	rep.set("model.ipc", agg.IPC(), "instr/cycle", note)
	rep.set("model.comm_per_instr", agg.CommPerInstr(), "transfers/instr", note)
	rep.set("model.imbalance", agg.Imbalance(), "nready/cycle", note)
	rep.set("model.vp_hit_ratio", agg.VP.HitRatio(), "ratio", note)
}
