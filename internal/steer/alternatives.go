package steer

import "clustervp/internal/config"

// This file implements the steering baselines the paper compares against
// conceptually in §5 (related work), used by the ablation benchmarks:
//
//   - RoundRobin: communication-blind trace-processor-style distribution
//     ("likely to result in many inter-cluster communications since they
//     are not taken into account by the partitioning scheme", §5).
//   - LoadOnly: pure workload balancing, ignoring dependences — the
//     opposite extreme.
//   - DepFIFO: an approximation of the Dependence-based paradigm
//     [Palacharla et al.]: follow the producer of the first pending
//     operand ("same FIFO"), with no explicit balance mechanism; new
//     slices start on the cluster after the previous allocation.
//
// They satisfy the same Chooser interface as the paper's Steerer so the
// core can swap them in. All three consult per-cluster capacity on
// asymmetric machines: RoundRobin and DepFIFO allocate cyclically in
// proportion to issue width (smooth weighted round-robin), and LoadOnly
// reads the capacity-weighted balancer. On homogeneous machines every
// sequence is bit-identical to the unweighted implementations.

// Chooser selects a cluster for one instruction given its operand views.
type Chooser interface {
	Choose(ops []Operand) int
	Balancer() *Balancer
}

// NewChooser builds the chooser of cfg.Steering over bal: the paper's
// Steerer for the baseline, modified and VPB schemes, else the
// baseline of this file it names.
func NewChooser(cfg config.Config, bal *Balancer) Chooser {
	switch cfg.Steering {
	case config.SteerRoundRobin:
		return NewRoundRobin(cfg, bal)
	case config.SteerLoadOnly:
		return NewLoadOnly(cfg, bal)
	case config.SteerDepFIFO:
		return NewDepFIFO(cfg, bal)
	}
	return New(cfg, bal)
}

// Sequenced reports whether the chooser of steering kind k keeps a
// cyclic sequence that Choose advances: RoundRobin on every call,
// DepFIFO on every instruction whose operands are all ready. Every
// other chooser's Choose is a pure function of its operands and the
// balancer, so a caller may skip a call whose answer it would discard;
// a Sequenced chooser must see every call.
func Sequenced(k config.SteeringKind) bool {
	return k == config.SteerRoundRobin || k == config.SteerDepFIFO
}

// wrr is a smooth weighted round-robin sequencer: each pick adds every
// cluster's weight to its credit, selects the highest credit (ties to
// the lower index) and charges it the weight sum. With uniform weights
// the sequence is plain cyclic 0,1,…,N-1; with weights {2,1,1} it is
// 0,1,2,0,… — each cluster appearing in proportion to its weight.
type wrr struct {
	weights []int64
	wsum    int64
	credit  []int64
}

// newWRR builds a sequencer from capacity weights (gcd-normalized, like
// the Balancer).
func newWRR(weights []int) *wrr {
	b := NewWeightedBalancer(weights)
	return &wrr{weights: b.weights, wsum: b.wsum, credit: make([]int64, len(b.weights))}
}

// next returns the next cluster in the weighted cycle.
func (w *wrr) next() int {
	best := 0
	for i := range w.credit {
		w.credit[i] += w.weights[i]
		if w.credit[i] > w.credit[best] {
			best = i
		}
	}
	w.credit[best] -= w.wsum
	return best
}

// RoundRobin distributes instructions cyclically — in proportion to
// cluster capacity on asymmetric machines — ignoring operands.
type RoundRobin struct {
	seq *wrr
	bal *Balancer
}

// NewRoundRobin builds a round-robin chooser.
func NewRoundRobin(cfg config.Config, bal *Balancer) *RoundRobin {
	return &RoundRobin{seq: newWRR(cfg.IssueWeights()), bal: bal}
}

// Choose implements Chooser.
func (r *RoundRobin) Choose([]Operand) int { return r.seq.next() }

// Balancer implements Chooser.
func (r *RoundRobin) Balancer() *Balancer { return r.bal }

// LoadOnly always picks the least-loaded cluster (capacity-weighted),
// ignoring dependences.
type LoadOnly struct {
	bal *Balancer
}

// NewLoadOnly builds a load-only chooser.
func NewLoadOnly(_ config.Config, bal *Balancer) *LoadOnly { return &LoadOnly{bal: bal} }

// Choose implements Chooser.
func (l *LoadOnly) Choose([]Operand) int { return l.bal.LeastLoaded(0) }

// Balancer implements Chooser.
func (l *LoadOnly) Balancer() *Balancer { return l.bal }

// DepFIFO approximates dependence-based steering: an instruction with a
// pending operand follows that operand's producer cluster; an
// instruction whose operands are all ready starts a new dependence
// slice on the next cluster of the capacity-proportional allocation
// cycle (implicit balancing via FIFO allocation, as in the
// dependence-based paradigm).
type DepFIFO struct {
	seq *wrr
	bal *Balancer
}

// NewDepFIFO builds a dependence-FIFO chooser.
func NewDepFIFO(cfg config.Config, bal *Balancer) *DepFIFO {
	seq := newWRR(cfg.IssueWeights())
	// Start the allocation cycle as if cluster 0 was just used, so the
	// first new slice lands on the next cluster — preserving the
	// homogeneous sequence 1,2,…,0 of the unweighted implementation.
	seq.credit[0] -= seq.wsum
	return &DepFIFO{seq: seq, bal: bal}
}

// Choose implements Chooser.
func (d *DepFIFO) Choose(ops []Operand) int {
	for _, op := range ops {
		if !op.Available {
			return op.ProducerCluster
		}
	}
	// New slice: next cluster in FIFO-allocation order.
	return d.seq.next()
}

// Balancer implements Chooser.
func (d *DepFIFO) Balancer() *Balancer { return d.bal }

var (
	_ Chooser = (*Steerer)(nil)
	_ Chooser = (*RoundRobin)(nil)
	_ Chooser = (*LoadOnly)(nil)
	_ Chooser = (*DepFIFO)(nil)
)
