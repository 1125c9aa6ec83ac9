package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// planBytes serializes a plan so two plans compare byte for byte.
func planBytes(p servePlan) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, p.seq)
	binary.Write(&b, binary.LittleEndian, p.tier)
	for _, c := range p.class {
		b.WriteString(c)
		b.WriteByte(0)
	}
	return b.Bytes()
}

func TestPlanServeDeterministic(t *testing.T) {
	n := defaultSizes(defaultSeconds).requests
	a, b := planBytes(planServe(1, n)), planBytes(planServe(1, n))
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed drew two different request sequences")
	}
	if bytes.Equal(a, planBytes(planServe(2, n))) {
		t.Fatal("seeds 1 and 2 drew the same request sequence")
	}
}

func TestPlanServeClassesAtDefaultSize(t *testing.T) {
	n := defaultSizes(defaultSeconds).requests
	for seed := uint64(1); seed <= 5; seed++ {
		p := planServe(seed, n)
		// serve-fleet runs a prefix of the same sequence.
		for _, prefix := range []int{n, int(float64(n) * fleetShare)} {
			count := map[string]int{}
			for _, c := range p.class[:prefix] {
				count[c]++
			}
			for _, c := range []string{classMemo, classCache, classSim} {
				if count[c] < 100 {
					t.Errorf("seed %d, %d requests: %d %s requests, want >= 100 (%v)", seed, prefix, count[c], c, count)
				}
			}
		}
		count := map[string]int{}
		for _, c := range p.class {
			count[c]++
		}
		k := tableCount(p.seq)
		if want := expectedTables(n, pyTheta, pySigma); math.Abs(float64(k)-want) > 0.05*want {
			t.Errorf("seed %d: %d distinct fingerprints, want within 5%% of %.0f", seed, k, want)
		}
		if got := count[classCache] + count[classSim]; got != k {
			t.Errorf("seed %d: %d first sights for %d fingerprints", seed, got, k)
		}
	}
}

func TestExpectedTables(t *testing.T) {
	if got := expectedTables(1, pyTheta, pySigma); math.Abs(got-1) > 1e-9 {
		t.Fatalf("E[K_1] = %v, want 1", got)
	}
	// Monte Carlo check of the closed form at a small size.
	const n, runs = 200, 400
	total := 0
	for r := 0; r < runs; r++ {
		total += tableCount(pitmanYor(rand.New(rand.NewPCG(uint64(r), 0)), n, pyTheta, pySigma))
	}
	mean := float64(total) / runs
	if want := expectedTables(n, pyTheta, pySigma); math.Abs(mean-want) > 0.05*want {
		t.Fatalf("mean table count %.1f over %d runs, closed form %.1f", mean, runs, want)
	}
}
