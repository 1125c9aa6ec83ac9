package main

import (
	"errors"
	"strings"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/stats"
)

// fakeChecker samples every task and takes the reference from want.
func fakeChecker(want map[string]stats.Results, records uint64) checker {
	return checker{
		sampled: func(task) bool { return true },
		reference: func(t task) (stats.Results, error) {
			r, ok := want[t.kernel]
			if !ok {
				return stats.Results{}, errors.New("no reference")
			}
			return r, nil
		},
		records: func(string) (uint64, error) { return records, nil },
	}
}

func verifyFixture(t *testing.T) ([]task, []op, map[string]stats.Results) {
	t.Helper()
	a, err := newTask(config.MachineSpec{Clusters: "2"}, "cjpeg", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.kernel = "djpeg"
	want := map[string]stats.Results{
		"cjpeg": {Benchmark: "cjpeg", Cycles: 100, Instructions: 250, PerCluster: []stats.ClusterStats{{Spec: "4w32q"}}},
		"djpeg": {Benchmark: "djpeg", Cycles: 90, Instructions: 200},
	}
	ops := []op{
		{task: 0, res: want["cjpeg"]},
		{task: 1, res: want["djpeg"]},
		{task: 0, res: want["cjpeg"]},
		{task: 0, res: want["cjpeg"]},
	}
	return []task{a, b}, ops, want
}

func TestVerifyAcceptsConsistentResults(t *testing.T) {
	tasks, ops, want := verifyFixture(t)
	if failed, why := fakeChecker(want, 0).verify(ops, tasks); failed != 0 {
		t.Fatalf("failed = %d (%s), want 0", failed, why)
	}
}

func TestVerifyCountsTamperedResult(t *testing.T) {
	tasks, ops, want := verifyFixture(t)
	ops[2].res.Cycles++ // a later resolution of task 0 disagrees
	failed, why := fakeChecker(want, 0).verify(ops, tasks)
	if failed != 1 || !strings.Contains(why, "earlier resolution") {
		t.Fatalf("failed = %d (%s), want 1 from the tampered repeat", failed, why)
	}
}

func TestVerifyCountsDisagreementWithReference(t *testing.T) {
	tasks, ops, want := verifyFixture(t)
	ops[1].res.Instructions++ // the only resolution of task 1, wrong
	failed, why := fakeChecker(want, 0).verify(ops, tasks)
	if failed != 1 || !strings.Contains(why, "cold reference") {
		t.Fatalf("failed = %d (%s), want 1 from the reference check", failed, why)
	}
	// Unsampled, the same tampering goes unseen.
	c := fakeChecker(want, 0)
	c.sampled = func(task) bool { return false }
	if failed, _ := c.verify(ops, tasks); failed != 0 {
		t.Fatalf("unsampled: failed = %d, want 0", failed)
	}
}

func TestVerifyCountsErrorsAndShortReplays(t *testing.T) {
	tasks, ops, want := verifyFixture(t)
	ops[1].err = errors.New("HTTP 503")
	tasks[0].trace = "cjpeg.cvt"
	failed, _ := fakeChecker(want, 249).verify(ops, tasks)
	if failed != 4 {
		t.Fatalf("failed = %d, want 4 (one error, three short replays)", failed)
	}
}
