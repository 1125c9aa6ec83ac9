// Package bpred implements the branch predictors from the paper's Table 1:
// a combined (tournament) predictor with a gshare component of 64K 2-bit
// counters and 16-bit global history, a bimodal component of 2K 2-bit
// counters, and a 1K-entry chooser. A return-address stack and a simple
// BTB cover indirect jumps.
//
// The timing simulator queries Predict at fetch and calls Update at branch
// resolution (writeback), mirroring SimpleScalar's bpred module that the
// paper's infrastructure extends.
package bpred

import "clustervp/internal/isa"

// Counter2 is a 2-bit saturating counter. Values 2 and 3 predict taken.
type Counter2 uint8

// Inc saturates at 3.
func (c Counter2) Inc() Counter2 {
	if c < 3 {
		return c + 1
	}
	return c
}

// Dec saturates at 0.
func (c Counter2) Dec() Counter2 {
	if c > 0 {
		return c - 1
	}
	return c
}

// Taken reports the counter's prediction.
func (c Counter2) Taken() bool { return c >= 2 }

// Predictor is the interface the fetch stage uses.
type Predictor interface {
	// Predict returns the predicted direction for the conditional branch
	// at pc. Unconditional branches are always taken and need not be
	// predicted.
	Predict(pc int) bool
	// Update trains the predictor with the resolved outcome.
	Update(pc int, taken bool)
	// Reset restores the just-constructed state in place.
	Reset()
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []Counter2
	mask  int
}

// NewBimodal builds a bimodal predictor with the given number of entries
// (must be a power of two).
func NewBimodal(entries int) *Bimodal {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: bimodal entries must be a positive power of two")
	}
	b := &Bimodal{table: make([]Counter2, entries), mask: entries - 1}
	b.Reset()
	return b
}

// Reset implements Predictor: every counter returns to weakly taken,
// the SimpleScalar default.
func (b *Bimodal) Reset() { fillWeaklyTaken(b.table) }

// fillWeaklyTaken sets every counter of t to 2 (weakly taken).
func fillWeaklyTaken(t []Counter2) {
	for i := range t {
		t[i] = 2
	}
}

// Predict implements Predictor.
func (b *Bimodal) Predict(pc int) bool { return b.table[pc&b.mask].Taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc int, taken bool) {
	i := pc & b.mask
	if taken {
		b.table[i] = b.table[i].Inc()
	} else {
		b.table[i] = b.table[i].Dec()
	}
}

// Gshare is a global-history predictor: the PC is XORed with the global
// history register to index a table of 2-bit counters.
type Gshare struct {
	table    []Counter2
	mask     int
	history  uint32
	histBits uint
}

// NewGshare builds a gshare predictor with the given table size (power of
// two) and history length in bits.
func NewGshare(entries int, histBits uint) *Gshare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: gshare entries must be a positive power of two")
	}
	g := &Gshare{table: make([]Counter2, entries), mask: entries - 1, histBits: histBits}
	g.Reset()
	return g
}

// Reset implements Predictor: weakly-taken counters, empty history.
func (g *Gshare) Reset() {
	fillWeaklyTaken(g.table)
	g.history = 0
}

func (g *Gshare) index(pc int) int {
	return (pc ^ int(g.history)) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc int) bool { return g.table[g.index(pc)].Taken() }

// Update implements Predictor and shifts the outcome into the global
// history register.
func (g *Gshare) Update(pc int, taken bool) {
	i := g.index(pc)
	if taken {
		g.table[i] = g.table[i].Inc()
	} else {
		g.table[i] = g.table[i].Dec()
	}
	g.history = (g.history << 1) & ((1 << g.histBits) - 1)
	if taken {
		g.history |= 1
	}
}

// History returns the current global history register (for tests).
func (g *Gshare) History() uint32 { return g.history }

// Combined is the paper's tournament predictor: a chooser table of 2-bit
// counters selects between the gshare and bimodal components per branch.
// Chooser counters >= 2 select gshare.
type Combined struct {
	gshare  *Gshare
	bimodal *Bimodal
	chooser []Counter2
	mask    int
}

// NewCombined builds the Table 1 predictor: chooserEntries of 2-bit
// counters selecting between gshare(gshareEntries, histBits) and
// bimodal(bimodalEntries).
func NewCombined(chooserEntries, gshareEntries int, histBits uint, bimodalEntries int) *Combined {
	if chooserEntries <= 0 || chooserEntries&(chooserEntries-1) != 0 {
		panic("bpred: chooser entries must be a positive power of two")
	}
	ch := make([]Counter2, chooserEntries)
	fillWeaklyTaken(ch)
	return &Combined{
		gshare:  NewGshare(gshareEntries, histBits),
		bimodal: NewBimodal(bimodalEntries),
		chooser: ch,
		mask:    chooserEntries - 1,
	}
}

// Reset implements Predictor, rewinding both components and the
// chooser.
func (c *Combined) Reset() {
	c.gshare.Reset()
	c.bimodal.Reset()
	fillWeaklyTaken(c.chooser)
}

// NewPaperCombined builds the exact Table 1 configuration: 1K chooser,
// gshare with 64K counters and 16-bit history, bimodal with 2K counters.
func NewPaperCombined() *Combined {
	return NewCombined(1024, 64*1024, 16, 2048)
}

// Predict implements Predictor.
func (c *Combined) Predict(pc int) bool {
	if c.chooser[pc&c.mask].Taken() {
		return c.gshare.Predict(pc)
	}
	return c.bimodal.Predict(pc)
}

// Update trains both components and the chooser (toward whichever
// component was correct when they disagree).
func (c *Combined) Update(pc int, taken bool) {
	g := c.gshare.Predict(pc)
	b := c.bimodal.Predict(pc)
	if g != b {
		i := pc & c.mask
		if g == taken {
			c.chooser[i] = c.chooser[i].Inc()
		} else {
			c.chooser[i] = c.chooser[i].Dec()
		}
	}
	c.gshare.Update(pc, taken)
	c.bimodal.Update(pc, taken)
}

// Static always predicts a fixed direction; used for the "no branch
// predictor" ablation and as a degenerate baseline in tests.
type Static struct{ TakenAlways bool }

// Predict implements Predictor.
func (s Static) Predict(int) bool { return s.TakenAlways }

// Update implements Predictor (no state).
func (s Static) Update(int, bool) {}

// Reset implements Predictor (no state).
func (s Static) Reset() {}

// RAS is a return-address stack for predicting JR returns.
type RAS struct {
	stack []int
	max   int
}

// NewRAS builds a return-address stack with the given depth.
func NewRAS(depth int) *RAS { return &RAS{max: depth} }

// Push records a call's return address.
func (r *RAS) Push(pc int) {
	if len(r.stack) == r.max {
		copy(r.stack, r.stack[1:])
		r.stack[len(r.stack)-1] = pc
		return
	}
	r.stack = append(r.stack, pc)
}

// Pop predicts the return target; ok is false when the stack is empty.
func (r *RAS) Pop() (pc int, ok bool) {
	if len(r.stack) == 0 {
		return 0, false
	}
	pc = r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	return pc, true
}

// Reset empties the stack.
func (r *RAS) Reset() { r.stack = r.stack[:0] }

// Depth returns the current number of entries.
func (r *RAS) Depth() int { return len(r.stack) }

// BTB is a direct-mapped branch target buffer used for indirect jumps
// that are not returns.
type BTB struct {
	tags    []int
	targets []int
	mask    int
}

// NewBTB builds a BTB with the given number of entries (power of two).
func NewBTB(entries int) *BTB {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: BTB entries must be a positive power of two")
	}
	b := &BTB{tags: make([]int, entries), targets: make([]int, entries), mask: entries - 1}
	b.Reset()
	return b
}

// Reset invalidates every entry.
func (b *BTB) Reset() {
	for i := range b.tags {
		b.tags[i] = -1
	}
	clear(b.targets)
}

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc int) (target int, ok bool) {
	i := pc & b.mask
	if b.tags[i] == pc {
		return b.targets[i], true
	}
	return 0, false
}

// Insert records the observed target of the branch at pc.
func (b *BTB) Insert(pc, target int) {
	i := pc & b.mask
	b.tags[i] = pc
	b.targets[i] = target
}

// Unit bundles the direction predictor, RAS and BTB, and applies the
// per-opcode policy the fetch stage needs: conditional branches use the
// direction predictor with the statically known target; J/JAL are always
// taken; JR consults the RAS (returns) or BTB (other indirect jumps).
type Unit struct {
	Dir Predictor
	Ras *RAS
	Btb *BTB

	// Statistics.
	CondSeen, CondHit     uint64
	TargetSeen, TargetHit uint64
}

// NewUnit builds the paper's full front-end predictor with the given
// direction predictor.
func NewUnit(dir Predictor) *Unit {
	return &Unit{Dir: dir, Ras: NewRAS(32), Btb: NewBTB(512)}
}

// Reset rewinds the direction predictor, RAS, BTB and statistics to
// their just-constructed state in place, so a pooled simulator reuses
// the tables instead of allocating them for every run.
func (u *Unit) Reset() {
	u.Dir.Reset()
	u.Ras.Reset()
	u.Btb.Reset()
	u.CondSeen, u.CondHit = 0, 0
	u.TargetSeen, u.TargetHit = 0, 0
}

// PredictNext returns the predicted next PC for the branch in at pc, and
// whether it is predicted taken.
func (u *Unit) PredictNext(pc int, in isa.Inst) (next int, taken bool) {
	info := isa.InfoFor(in.Op)
	switch {
	case info.IsCall:
		u.Ras.Push(pc + 1)
		return in.Target, true
	case info.IsReturn:
		if t, ok := u.Ras.Pop(); ok {
			return t, true
		}
		if t, ok := u.Btb.Lookup(pc); ok {
			return t, true
		}
		return pc + 1, true
	case info.IsIndirect:
		if t, ok := u.Btb.Lookup(pc); ok {
			return t, true
		}
		return pc + 1, true
	case info.IsCondBranch:
		if u.Dir.Predict(pc) {
			return in.Target, true
		}
		return pc + 1, false
	default: // J
		return in.Target, true
	}
}

// Resolve trains the unit with the actual outcome and reports whether the
// earlier prediction (predNext) was correct.
func (u *Unit) Resolve(pc int, in isa.Inst, actualNext int, actualTaken bool, predNext int) bool {
	info := isa.InfoFor(in.Op)
	correct := predNext == actualNext
	if info.IsCondBranch {
		u.CondSeen++
		if correct {
			u.CondHit++
		}
		u.Dir.Update(pc, actualTaken)
	} else {
		u.TargetSeen++
		if correct {
			u.TargetHit++
		}
		if info.IsIndirect {
			u.Btb.Insert(pc, actualNext)
		}
	}
	return correct
}

// Accuracy returns the overall prediction accuracy across conditional and
// indirect control transfers seen so far (1.0 when nothing was seen).
func (u *Unit) Accuracy() float64 {
	seen := u.CondSeen + u.TargetSeen
	if seen == 0 {
		return 1.0
	}
	return float64(u.CondHit+u.TargetHit) / float64(seen)
}
