package core

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// lawRecords caps the trace of one fuzzed run: enough to fill the ROB,
// drain the pipeline and exercise copies, verifications and reissue,
// and short enough for hundreds of machines a second.
const lawRecords = 3000

// lawMaxCycles is the cycle budget of one fuzzed run. It exceeds the
// watchdog window, so a deadlock still shows as one; a run that
// outlasts the budget without one is skipped, not failed.
const lawMaxCycles = 4 * watchdogWindow

// firstN is the first n records of src.
type firstN struct {
	src trace.Source
	n   int
}

func (f *firstN) Next(d *trace.DynInst) bool {
	if f.n == 0 || !f.src.Next(d) {
		return false
	}
	f.n--
	return true
}

func (f *firstN) Err() error { return f.src.Err() }

// FuzzSimLaws simulates a fuzzed machine on the first lawRecords
// instructions of a fuzzed kernel and workload seed, and checks laws
// that need no second simulator:
//
//   - every instruction of the trace commits, and the watchdog never
//     fires;
//   - the per-cluster dispatch counts sum to the committed
//     instructions, the per-cluster copies sent to the copies plus the
//     verification-copies, and every copy crosses the interconnect at
//     least once;
//   - no run is faster than the front end or commit allows: cycles >=
//     ceil(instructions / min(FetchWidth, RetireWidth));
//   - a predicted operand is verified no sooner than its producer
//     allows: one cycle after a local producer's writeback, or when a
//     verification-copy completes (checked every cycle);
//   - the answer does not depend on how the run was laid out: a fresh
//     Sim, a pooled Sim last Reset to another machine shape, and a
//     replay of the trace through a .cvt file give equal Results.
//
// The machine is a config.MachineSpec, so MachineSpec.Build and
// ParseMachine are fuzzed too: a spec Build rejects is skipped. Run it
// with
//
//	go test -fuzz=FuzzSimLaws ./internal/core
//
// The seed corpus in testdata/fuzz/FuzzSimLaws spans 1, 2 and 4
// clusters, asymmetric specs, every predictor and every topology.
func FuzzSimLaws(f *testing.F) {
	kernels := workload.Names()
	f.Fuzz(func(t *testing.T, clusters, vp, steering, topology string,
		commLatency, commPaths, vpEntries, renameCycles int, kernel uint8, seed uint64) {
		cfg, err := config.MachineSpec{
			Clusters: clusters, VP: vp, Steering: steering, Topology: topology,
			CommLatency: commLatency, CommPaths: commPaths,
			VPTableEntries: vpEntries, RenameCycles: renameCycles,
		}.Build()
		if err != nil {
			return
		}
		cfg.MaxCycles = lawMaxCycles
		k, err := workload.ByName(kernels[int(kernel)%len(kernels)])
		if err != nil {
			t.Fatal(err)
		}
		prog := k.Build(1, seed)
		source := func() trace.Source { return &firstN{src: trace.NewExecutor(prog), n: lawRecords} }

		path := filepath.Join(t.TempDir(), "k.cvt")
		n, err := trace.WriteFile(path, prog.Name, prog.Code, source())
		if err != nil {
			t.Fatal(err)
		}

		s, err := NewFromSource(cfg, source(), prog.Name)
		if err != nil {
			t.Fatalf("Build accepted %s, the simulator did not: %v", cfg.Name, err)
		}
		fresh, err := s.run(verifiedStep(t))
		if err != nil && strings.HasPrefix(err.Error(), "core: exceeded") {
			return
		}
		if err != nil {
			t.Fatalf("%s on %s: %v", cfg.Name, prog.Name, err)
		}
		checkLaws(t, cfg, fresh, n)

		other := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
		if cfg.NumClusters() == 4 {
			other = config.Preset(1)
		}
		p, err := NewFromSource(other, source(), prog.Name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		if err := p.Reset(cfg, source(), prog.Name); err != nil {
			t.Fatal(err)
		}
		pooled, err := p.Run()
		if err != nil {
			t.Fatalf("pooled: %v", err)
		}

		fr, err := trace.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fr.Close()
		r, err := NewFromSource(cfg, fr, prog.Name)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := r.Run()
		if err != nil {
			t.Fatalf("replay: %v", err)
		}

		if !reflect.DeepEqual(pooled, fresh) {
			t.Errorf("pooled Sim diverges from a fresh one:\npooled: %+v\nfresh:  %+v", pooled, fresh)
		}
		if !reflect.DeepEqual(replayed, fresh) {
			t.Errorf(".cvt replay diverges from the executor:\nreplay: %+v\nfresh:  %+v", replayed, fresh)
		}
	})
}

// checkLaws checks the counting laws and the throughput bound on the
// Results of a run over an n-record trace.
func checkLaws(t *testing.T, cfg config.Config, r stats.Results, n uint64) {
	t.Helper()
	if r.Instructions != n {
		t.Errorf("%s: committed %d of %d instructions", cfg.Name, r.Instructions, n)
	}
	var dispatched, copiesOut uint64
	for _, c := range r.PerCluster {
		dispatched += c.Dispatched
		copiesOut += c.CopiesOut
	}
	if dispatched != r.Instructions {
		t.Errorf("%s: clusters dispatched %d instructions, %d committed", cfg.Name, dispatched, r.Instructions)
	}
	if copiesOut != r.Copies+r.VerifyCopies {
		t.Errorf("%s: clusters sent %d copies, want copies %d + verification-copies %d",
			cfg.Name, copiesOut, r.Copies, r.VerifyCopies)
	}
	if r.BusTransfers < r.Copies {
		t.Errorf("%s: %d copies but only %d interconnect transfers", cfg.Name, r.Copies, r.BusTransfers)
	}
	width := uint64(min(cfg.FetchWidth, cfg.RetireWidth))
	if floor := (n + width - 1) / width; uint64(r.Cycles) < floor {
		t.Errorf("%s: %d instructions in %d cycles, faster than %d a cycle allows (%d)",
			cfg.Name, n, r.Cycles, width, floor)
	}
}

// verifiedStep is step with the verification-timing law checked right
// after processVerifications, before commit can retire what it
// released. Each pending check is due when its producer allows (the
// provider's doneTime, plus one for a local producer; never for a
// provider still waiting, whose doneTime is 1<<62); a check that
// resolves must be due by now, and its consumer may commit no earlier.
// Any departure of this sequence from step shows as a fresh run
// diverging from the pooled and replayed ones.
func verifiedStep(t *testing.T) func(*Sim, int64) {
	type check struct {
		consumer eref
		opIdx    int32
		due      int64
	}
	var before []check
	return func(s *Sim, now int64) {
		before = before[:0]
		for _, v := range s.pendingVerifs {
			var due int64
			if p := s.get(v.provider); p != nil {
				due = p.doneTime
				if !v.remote {
					due++
				}
			}
			before = append(before, check{v.consumer, v.opIdx, due})
		}
		s.processVerifications(now)
		// Resolution compacts the queue in order, so the checks still
		// pending are a subsequence of before.
		left := s.pendingVerifs
		for _, c := range before {
			if len(left) > 0 && left[0].consumer == c.consumer && left[0].opIdx == c.opIdx {
				left = left[1:]
				continue
			}
			if now < c.due {
				t.Fatalf("cycle %d: operand %d of seq %d verified, due at %d", now, c.opIdx, int64(c.consumer)-1, c.due)
			}
			if e := s.get(c.consumer); e != nil && e.verifyMin < c.due {
				t.Fatalf("cycle %d: seq %d may commit at %d, before its operand %d is due at %d",
					now, e.seq, e.verifyMin, c.opIdx, c.due)
			}
		}
		s.commit(now)
		s.issue(now)
		s.dispatch(now)
		s.fetch(now)
		s.endCycle(now)
	}
}
