// Package workload provides the benchmark suite for the reproduction: one
// kernel per MediaBench program in the paper's Table 2.
//
// The original suite consists of Alpha AXP binaries compiled from C with
// proprietary inputs; neither is available offline, so each kernel here is
// written directly in the clustervp virtual ISA and reproduces the
// *computational signature* of its namesake — the dominant inner loops
// (DCT, wavelet filters, ADPCM quantization, LPC autocorrelation, FP
// geometry transform, motion-estimation SAD, modular bignum arithmetic,
// IIR filter banks), with deterministic pseudo-random input data flowing
// through the registers. Value, branch and cache behaviour therefore act
// on genuine value streams, which is what the paper's mechanism exploits.
// DESIGN.md §3 documents this substitution.
package workload

import (
	"fmt"
	"sort"

	"clustervp/internal/program"
)

// Kernel describes one benchmark.
type Kernel struct {
	// Name matches the MediaBench program it stands in for (Table 2).
	Name string
	// Category is the media domain from Table 2 (image, audio, video,
	// 3D graphics, encryption).
	Category string
	// Description summarizes the computational signature.
	Description string
	// FPHeavy marks kernels dominated by floating-point work (whose
	// operands the paper's predictor does not predict).
	FPHeavy bool
	// Build assembles the kernel. scale >= 1 multiplies the input size /
	// iteration count; scale 1 runs tens of thousands of dynamic
	// instructions, suitable for tests. seed re-draws the pseudo-random
	// input data (0 = the canonical inputs); the program depends on its
	// arguments only, so concurrent builds need no coordination.
	Build func(scale int, seed uint64) *program.Program
}

var registry = map[string]Kernel{}

func register(k Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("workload: duplicate kernel " + k.Name)
	}
	registry[k.Name] = k
}

// ByName returns the kernel with the given name.
func ByName(name string) (Kernel, error) {
	k, ok := registry[name]
	if !ok {
		return Kernel{}, fmt.Errorf("workload: unknown kernel %q", name)
	}
	return k, nil
}

// Names returns all kernel names in Table 2 order (alphabetical, as the
// paper lists them).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns all kernels in Table 2 order.
func All() []Kernel {
	names := Names()
	out := make([]Kernel, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Build assembles kernel name at the given scale (clamped to >= 1) with
// its pseudo-random input streams re-seeded by seed. Seed 0 selects the
// canonical inputs every historical figure was produced with; any other
// value deterministically re-draws the input data, giving independent
// workload instances for trace generation and variance studies.
func Build(name string, scale int, seed uint64) (*program.Program, error) {
	k, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		scale = 1
	}
	return k.Build(scale, seed), nil
}

// splitmix64 decorrelates user seeds (0 maps to 0 so the canonical
// streams stay untouched). Each builder XORs it into the constant seed
// of each of its sample streams.
func splitmix64(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// lcg is a deterministic 64-bit linear congruential generator used to
// synthesize input data (same constants as Knuth's MMIX).
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

// intSamples produces n pseudo-random int64 samples in [-amp, amp].
func intSamples(seed uint64, n int, amp int64) []int64 {
	l := lcg(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(l.next()%uint64(2*amp+1)) - amp
	}
	return out
}

// smoothSamples produces n samples of a slowly varying waveform (sum of
// a ramp and noise), mimicking audio/image data that has exploitable
// value locality.
func smoothSamples(seed uint64, n int, amp int64) []int64 {
	l := lcg(seed)
	out := make([]int64, n)
	acc := int64(0)
	for i := range out {
		acc += int64(l.next()%17) - 8
		if acc > amp {
			acc = amp
		}
		if acc < -amp {
			acc = -amp
		}
		out[i] = acc
	}
	return out
}

// floatSamples produces n pseudo-random float64 samples in [-1, 1).
func floatSamples(seed uint64, n int) []float64 {
	l := lcg(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(int64(l.next()>>11))/float64(1<<52) - 1.0
	}
	return out
}
