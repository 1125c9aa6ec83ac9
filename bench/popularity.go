package main

// The serve workloads' request mix. Fingerprint popularity follows a
// Pitman–Yor (two-parameter Chinese restaurant) process, the
// microclustering model of Beraha & Favaro (arXiv 2507.18101): a few
// fingerprints are requested over and over and a long tail is requested
// once. Every "table" of the process is one distinct fingerprint; each
// is either in the cache tier, simulated into the server's disk cache
// during set-up, or never seen before the timed phase.

import (
	"math"
	"math/rand/v2"
)

// Pitman–Yor parameters: θ sets how many distinct fingerprints appear,
// σ how heavy the tail is.
const (
	pyTheta = 5.0
	pySigma = 0.5
)

// Ledger classes: how the benchmark expects a request to resolve, from
// the sequence alone. The first request for a cache-tier fingerprint is
// a disk-cache hit, the first for any other fingerprint a simulation,
// and every repeat a memo hit.
const (
	classSim   = "sim"
	classCache = "cache"
	classMemo  = "memo"
)

// candidates is how many sequences planServe draws before keeping the
// one whose distinct-fingerprint count is closest to the expectation.
// The count of a Pitman–Yor sequence does not concentrate as it grows,
// so without this choice it — and with it the share of requests that
// simulate — would swing widely from seed to seed.
const candidates = 32

// servePlan is the request sequence of a serve workload.
type servePlan struct {
	seq   []int32  // request → table (fingerprint), tables numbered by first appearance
	tier  []bool   // table → in the cache tier
	class []string // request → ledger class
}

// pitmanYor draws n seatings of the Pitman–Yor process PY(θ, σ): a new
// table with probability (θ + σk)/(θ + i) after i customers at k tables,
// otherwise table t with probability proportional to (size_t − σ).
func pitmanYor(rng *rand.Rand, n int, theta, sigma float64) []int32 {
	seq := make([]int32, n)
	var sizes []float64
	for i := range seq {
		k := len(sizes)
		if i == 0 || rng.Float64()*(theta+float64(i)) < theta+sigma*float64(k) {
			seq[i] = int32(k)
			sizes = append(sizes, 1)
			continue
		}
		// A uniformly drawn earlier customer lands on table t with
		// probability size_t/i; accepting with (size_t−σ)/size_t leaves
		// exactly the (size_t−σ) weighting.
		for {
			t := seq[rng.IntN(i)]
			if rng.Float64()*sizes[t] < sizes[t]-sigma {
				seq[i] = t
				sizes[t]++
				break
			}
		}
	}
	return seq
}

// expectedTables is E[K_n] for PY(θ, σ): θ/σ · ((θ+σ)↑n / θ↑n − 1),
// with rising factorials taken through log-gamma.
func expectedTables(n int, theta, sigma float64) float64 {
	a, _ := math.Lgamma(theta + sigma + float64(n))
	b, _ := math.Lgamma(theta + sigma)
	c, _ := math.Lgamma(theta + float64(n))
	d, _ := math.Lgamma(theta)
	return theta / sigma * (math.Exp(a-b-c+d) - 1)
}

func tableCount(seq []int32) int {
	k := 0
	for _, t := range seq {
		k = max(k, int(t)+1)
	}
	return k
}

// planServe draws the n-request sequence of a serve workload from seed.
// Exactly half the tables (rounded down) form the cache tier, shuffled
// among them, so a new-table draw is a cache-tier fingerprint or a
// never-seen one with equal probability.
func planServe(seed uint64, n int) servePlan {
	rng := newRand(seed, streamPlan)
	want := expectedTables(n, pyTheta, pySigma)
	var p servePlan
	for i := 0; i < candidates; i++ {
		seq := pitmanYor(rng, n, pyTheta, pySigma)
		if p.seq == nil || math.Abs(float64(tableCount(seq))-want) < math.Abs(float64(tableCount(p.seq))-want) {
			p.seq = seq
		}
	}
	k := tableCount(p.seq)
	p.tier = make([]bool, k)
	for t := 0; t < k/2; t++ {
		p.tier[t] = true
	}
	rng.Shuffle(k, func(i, j int) { p.tier[i], p.tier[j] = p.tier[j], p.tier[i] })
	p.class = make([]string, n)
	seen := make([]bool, k)
	for i, t := range p.seq {
		switch {
		case seen[t]:
			p.class[i] = classMemo
		case p.tier[t]:
			p.class[i] = classCache
		default:
			p.class[i] = classSim
		}
		seen[t] = true
	}
	return p
}
