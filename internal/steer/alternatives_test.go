package steer

import (
	"testing"

	"clustervp/internal/config"
)

func TestRoundRobinCycles(t *testing.T) {
	r := NewRoundRobin(config.Preset(4), NewBalancer(4))
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, r.Choose(nil))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinIgnoresOperands(t *testing.T) {
	r := NewRoundRobin(config.Preset(4), NewBalancer(4))
	ops := []Operand{{Available: false, ProducerCluster: 3}}
	if r.Choose(ops) != 0 {
		t.Error("round robin must ignore dependences")
	}
}

func TestLoadOnlyTracksBalancer(t *testing.T) {
	b := NewBalancer(4)
	l := NewLoadOnly(config.Preset(4), b)
	b.Dispatched(0)
	b.Dispatched(0)
	b.Dispatched(1)
	// Clusters 2 and 3 are least loaded; lowest index wins ties.
	if got := l.Choose([]Operand{{Available: false, ProducerCluster: 0}}); got != 2 {
		t.Errorf("load-only choice = %d, want 2", got)
	}
}

func TestDepFIFOFollowsPendingProducer(t *testing.T) {
	d := NewDepFIFO(config.Preset(4), NewBalancer(4))
	got := d.Choose([]Operand{
		{Available: true, MappedIn: 1},
		{Available: false, ProducerCluster: 2},
	})
	if got != 2 {
		t.Errorf("dep-FIFO must follow the pending producer, got %d", got)
	}
}

func TestDepFIFONewSlicesRotate(t *testing.T) {
	d := NewDepFIFO(config.Preset(4), NewBalancer(4))
	ready := []Operand{{Available: true}}
	a := d.Choose(ready)
	b := d.Choose(ready)
	c := d.Choose(ready)
	if a == b || b == c {
		t.Errorf("new slices must rotate clusters: %d %d %d", a, b, c)
	}
}

func TestAlternativeSteeringKindsNamed(t *testing.T) {
	for _, k := range []config.SteeringKind{config.SteerRoundRobin, config.SteerLoadOnly, config.SteerDepFIFO} {
		if k.String() == "" || k.String()[0] == 's' && len(k.String()) > 5 && k.String()[:5] == "steer" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestSequencedMatchesChooseState checks Sequenced against behavior:
// for every steering kind, on a homogeneous and an asymmetric machine,
// a chooser that makes one extra, discarded Choose per instruction must
// steer differently from one that does not exactly when the kind is
// Sequenced. The core relies on this to skip the steering of a dispatch
// attempt that cannot succeed.
func TestSequencedMatchesChooseState(t *testing.T) {
	for _, name := range config.SteeringNames() {
		k, err := config.ParseSteering(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []config.Config{config.Preset(4).WithSteering(k), asymCfg(k)} {
			n := len(cfg.IssueWeights())
			extra := NewChooser(cfg, NewWeightedBalancer(cfg.IssueWeights()))
			plain := NewChooser(cfg, NewWeightedBalancer(cfg.IssueWeights()))
			rng := uint64(1)
			next := func(m uint64) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % m)
			}
			diverged := false
			for i := 0; i < 2000 && !diverged; i++ {
				ops := make([]Operand, next(3))
				for j := range ops {
					ops[j] = Operand{
						Available:       next(2) == 0,
						MappedIn:        uint32(next(1 << uint(n))),
						ProducerCluster: next(uint64(n)),
						Predicted:       next(3) == 0,
					}
				}
				extra.Choose(ops)
				a, b := extra.Choose(ops), plain.Choose(ops)
				if a != b {
					diverged = true
				}
				extra.Balancer().Dispatched(a)
				plain.Balancer().Dispatched(b)
			}
			if diverged != Sequenced(k) {
				t.Errorf("%s, %d clusters: an extra Choose changes later choices = %v, Sequenced = %v",
					name, n, diverged, Sequenced(k))
			}
		}
	}
}
