// Package steer implements the paper's dynamic instruction-steering
// heuristics (§2.3, §3): the Baseline scheme (an enhanced "Advanced RMBS"
// generalized to N clusters), the §3.2 Modified scheme, and the §3.3 VPB
// (Value Prediction Based) scheme, together with the DCOUNT
// workload-balance counters the steering decisions consult.
//
// The DCOUNT counters are capacity-weighted so the heuristics extend to
// heterogeneous machines: each cluster carries a weight proportional to
// its issue width, and "balanced" means equal utilization rather than
// equal instruction count. On homogeneous machines the weights normalize
// to 1 and every counter value is bit-identical to the paper's scheme.
package steer

import (
	"math/bits"

	"clustervp/internal/config"
)

// Operand is the steering-relevant view of one source operand at
// dispatch.
type Operand struct {
	// Available is true when the operand's value has already been
	// produced somewhere (§2.3.1 "available at dispatch time").
	Available bool
	// MappedIn is a bitmask of clusters holding a valid mapping.
	MappedIn uint32
	// ProducerCluster is the cluster where a pending operand is being
	// produced (meaningful when !Available).
	ProducerCluster int
	// Predicted is true when the value predictor produced a confident
	// prediction for this operand.
	Predicted bool
}

// Balancer maintains the paper's DCOUNT workload counters, generalized
// to capacity weights. With normalized weights u_c (gcd-reduced issue
// widths; all 1 on homogeneous machines) and U = Σu_c, dispatching to
// cluster c conceptually adds U-u_c to counter c and subtracts u_j from
// every other counter j, so the counters always sum to zero and counter
// c equals U·(d_c − u_c·D/U): the surplus of cluster c over its
// capacity share of the D dispatched instructions (§2.3.2, weighted).
//
// The representation makes Dispatched O(1): it stores only the
// per-cluster dispatch tallies d_c and the global total D, and
// materializes counter c as U·d_c − u_c·D on read. For uniform weights
// that is N·d_c − D — exactly the value the paper's per-dispatch
// increment loop maintains.
type Balancer struct {
	weights []int64 // normalized capacity weights u_c
	wsum    int64   // U = Σ u_c
	disp    []int64 // d_c: instructions dispatched to cluster c
	total   int64   // D = Σ d_c
}

// NewBalancer builds a Balancer for n equally-weighted clusters (the
// paper's homogeneous machines).
func NewBalancer(n int) *Balancer {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return NewWeightedBalancer(w)
}

// NewWeightedBalancer builds a Balancer whose cluster c has capacity
// weight weights[c] (typically the cluster's total issue width). The
// weights are normalized by their gcd, so homogeneous machines reduce
// to weight 1 per cluster and reproduce the unweighted counters
// bit-for-bit.
func NewWeightedBalancer(weights []int) *Balancer {
	b := &Balancer{
		weights: make([]int64, len(weights)),
		disp:    make([]int64, len(weights)),
	}
	g := 0
	for _, w := range weights {
		if w < 1 {
			panic("steer: capacity weights must be >= 1")
		}
		g = gcd(g, w)
	}
	for i, w := range weights {
		b.weights[i] = int64(w / g)
		b.wsum += b.weights[i]
	}
	return b
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Dispatched records an instruction steered to cluster c in O(1).
func (b *Balancer) Dispatched(c int) {
	b.disp[c]++
	b.total++
}

// Count returns cluster c's DCOUNT counter: U·d_c − u_c·D.
func (b *Balancer) Count(c int) int64 {
	return b.wsum*b.disp[c] - b.weights[c]*b.total
}

// Imbalance is the maximum absolute counter value.
func (b *Balancer) Imbalance() int64 {
	var m int64
	for c := range b.disp {
		v := b.Count(c)
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Weight returns cluster c's normalized capacity weight.
func (b *Balancer) Weight(c int) int64 { return b.weights[c] }

// Clusters returns the cluster count.
func (b *Balancer) Clusters() int { return len(b.disp) }

// LeastLoaded returns the cluster with the minimum counter among those in
// mask (a bitmask; 0 means all clusters). Ties break toward the lower
// cluster index.
func (b *Balancer) LeastLoaded(mask uint32) int {
	best := -1
	var bestCount int64
	for i := range b.disp {
		if mask != 0 && mask&(1<<uint(i)) == 0 {
			continue
		}
		v := b.Count(i)
		if best == -1 || v < bestCount {
			best, bestCount = i, v
		}
	}
	if best == -1 {
		best = 0
	}
	return best
}

// Reset zeroes the counters.
func (b *Balancer) Reset() {
	for i := range b.disp {
		b.disp[i] = 0
	}
	b.total = 0
}

// Steerer chooses a cluster for each dispatched instruction.
type Steerer struct {
	kind      config.SteeringKind
	clusters  int
	threshold int64 // rule-1 imbalance threshold
	vpbThresh int64 // VPB M2 threshold
	allMask   uint32
	bal       *Balancer
	counts    [32]int64 // per-Choose DCOUNT snapshot scratch
}

// New builds a Steerer from the machine configuration, sharing the given
// Balancer (the core also reads it for statistics).
func New(cfg config.Config, bal *Balancer) *Steerer {
	n := cfg.NumClusters()
	return &Steerer{
		kind:      cfg.Steering,
		clusters:  n,
		threshold: int64(cfg.BalanceThreshold),
		vpbThresh: int64(cfg.VPBThreshold),
		allMask:   (1 << uint(n)) - 1,
		bal:       bal,
	}
}

// Choose implements the §3.1 algorithm with the §3.2/§3.3 modifications:
//
//  1. If the workload imbalance exceeds the threshold, send the
//     instruction to the least loaded cluster.
//  2. Otherwise identify the clusters with minimum communication penalty:
//     2.1 if any source operand is pending, the clusters producing the
//     pending operands; 2.2 else the clusters where the most operands
//     are mapped; 2.3 else all clusters.
//  3. Pick the least loaded cluster among the candidates.
//
// "Least loaded" consults the capacity-weighted counters, so on an
// asymmetric machine every rule prefers clusters with spare capacity
// share, not merely fewer instructions.
//
// Under Modified/VPB steering, confidently predicted operands count as
// available in rule 2.1 (M1); under Modified always — and under VPB only
// when imbalance > VPBThreshold — they also count as mapped in every
// cluster in rule 2.2 (M2).
func (s *Steerer) Choose(ops []Operand) int {
	if s.clusters == 1 {
		return 0
	}
	// Materialize the DCOUNT counters once: the imbalance test and every
	// least-loaded selection below read the same snapshot (the counters
	// only change on Dispatched, never mid-Choose).
	b := s.bal
	counts := s.counts[:s.clusters]
	var imbalance int64
	for c := range counts {
		v := b.wsum*b.disp[c] - b.weights[c]*b.total
		counts[c] = v
		if v < 0 {
			v = -v
		}
		if v > imbalance {
			imbalance = v
		}
	}
	if imbalance > s.threshold {
		return leastIn(counts, s.allMask)
	}

	useM1 := s.kind == config.SteerModified || s.kind == config.SteerVPB
	useM2 := s.kind == config.SteerModified ||
		(s.kind == config.SteerVPB && imbalance > s.vpbThresh)

	// Rule 2.1: pending operands pin the candidates to their producer
	// clusters.
	var pendingMask uint32
	for i := range ops {
		op := &ops[i]
		avail := op.Available
		if useM1 && op.Predicted {
			avail = true
		}
		if !avail {
			pendingMask |= 1 << uint(op.ProducerCluster)
		}
	}
	if pendingMask != 0 {
		return leastIn(counts, pendingMask)
	}

	// Rule 2.2: clusters with the greatest number of mapped operands,
	// computed bit-parallel on the per-operand mapped masks (an M2
	// predicted operand counts as mapped everywhere). With at most two
	// source operands the max-count cluster set is the mask intersection
	// when nonempty, else the union.
	if len(ops) > 0 {
		var bestMask uint32
		if len(ops) <= 2 {
			var m0, m1 uint32
			m0 = ops[0].MappedIn
			if useM2 && ops[0].Predicted {
				m0 = s.allMask
			}
			if len(ops) == 2 {
				m1 = ops[1].MappedIn
				if useM2 && ops[1].Predicted {
					m1 = s.allMask
				}
				if both := m0 & m1; both != 0 {
					bestMask = both
				} else {
					bestMask = m0 | m1
				}
			} else {
				bestMask = m0
			}
		} else {
			best := 0
			for c := 0; c < s.clusters; c++ {
				n := 0
				for i := range ops {
					op := &ops[i]
					if op.MappedIn&(1<<uint(c)) != 0 || (useM2 && op.Predicted) {
						n++
					}
				}
				if n > best {
					best = n
					bestMask = 1 << uint(c)
				} else if n == best && n > 0 {
					bestMask |= 1 << uint(c)
				}
			}
		}
		if bestMask != 0 {
			return leastIn(counts, bestMask)
		}
	}

	// Rule 2.3: no constraints.
	return leastIn(counts, s.allMask)
}

// leastIn returns the cluster with the minimum counter among those in
// mask (nonzero), visiting only mask's clusters. Ties break toward the
// lower cluster index.
func leastIn(counts []int64, mask uint32) int {
	m := mask & (1<<uint(len(counts)) - 1)
	if m == 0 {
		return 0
	}
	best := bits.TrailingZeros32(m)
	bestCount := counts[best]
	for m &= m - 1; m != 0; m &= m - 1 {
		if c := bits.TrailingZeros32(m); counts[c] < bestCount {
			best, bestCount = c, counts[c]
		}
	}
	return best
}

// Balancer returns the shared balancer.
func (s *Steerer) Balancer() *Balancer { return s.bal }
