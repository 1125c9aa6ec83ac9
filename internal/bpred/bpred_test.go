package bpred

import (
	"testing"
	"testing/quick"

	"clustervp/internal/isa"
)

func TestCounter2Saturation(t *testing.T) {
	c := Counter2(0)
	if c.Dec() != 0 {
		t.Error("Dec must saturate at 0")
	}
	for i := 0; i < 10; i++ {
		c = c.Inc()
	}
	if c != 3 {
		t.Errorf("Inc must saturate at 3, got %d", c)
	}
	if !c.Taken() || Counter2(1).Taken() {
		t.Error("Taken threshold wrong")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(2048)
	for i := 0; i < 10; i++ {
		b.Update(100, false)
	}
	if b.Predict(100) {
		t.Error("bimodal should learn not-taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(100, true)
	}
	if !b.Predict(100) {
		t.Error("bimodal should re-learn taken bias")
	}
}

func TestGshareLearnsAlternation(t *testing.T) {
	// A strictly alternating branch is 50% for bimodal but ~100% for a
	// history-based predictor once warmed up.
	g := NewGshare(64*1024, 16)
	taken := false
	warm := 200
	hits := 0
	for i := 0; i < 1000; i++ {
		p := g.Predict(77)
		if i >= warm && p == taken {
			hits++
		}
		g.Update(77, taken)
		taken = !taken
	}
	if hits < 750 {
		t.Errorf("gshare alternation hits = %d/800, want >= 750", hits)
	}
}

func TestGshareHistoryMask(t *testing.T) {
	g := NewGshare(1024, 4)
	for i := 0; i < 32; i++ {
		g.Update(1, true)
	}
	if g.History() != 0xF {
		t.Errorf("history = %#x, want 0xF (4-bit mask)", g.History())
	}
}

func TestCombinedBeatsComponentsOnMixedWorkload(t *testing.T) {
	// Branch A is strongly biased (bimodal-friendly); branch B alternates
	// (gshare-friendly). The combined predictor should track both.
	c := NewPaperCombined()
	taken := false
	hits, total := 0, 0
	for i := 0; i < 4000; i++ {
		// Biased branch at pc=11.
		p := c.Predict(11)
		if i > 500 {
			total++
			if p == true {
				hits++
			}
		}
		c.Update(11, true)
		// Alternating branch at pc=22.
		p = c.Predict(22)
		if i > 500 {
			total++
			if p == taken {
				hits++
			}
		}
		c.Update(22, taken)
		taken = !taken
	}
	acc := float64(hits) / float64(total)
	if acc < 0.95 {
		t.Errorf("combined accuracy on mixed workload = %.3f, want >= 0.95", acc)
	}
}

func TestPowerOfTwoPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBimodal(3) },
		func() { NewGshare(100, 4) },
		func() { NewCombined(3, 4, 2, 4) },
		func() { NewBTB(7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for non-power-of-two size")
				}
			}()
			f()
		}()
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	for i := 1; i <= 3; i++ {
		r.Push(i * 10)
	}
	for want := 30; want >= 10; want -= 10 {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS must report !ok")
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	if r.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", r.Depth())
	}
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("top = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("second = %d, want 2", v)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(512)
	if _, ok := b.Lookup(42); ok {
		t.Error("empty BTB must miss")
	}
	b.Insert(42, 1000)
	if tgt, ok := b.Lookup(42); !ok || tgt != 1000 {
		t.Errorf("lookup = %d,%v", tgt, ok)
	}
	// Conflicting entry evicts.
	b.Insert(42+512, 2000)
	if _, ok := b.Lookup(42); ok {
		t.Error("conflicting insert should evict")
	}
}

func TestUnitCallReturn(t *testing.T) {
	u := NewUnit(NewPaperCombined())
	call := isa.Inst{Op: isa.JAL, Rd: isa.RA, Target: 100}
	next, taken := u.PredictNext(5, call)
	if next != 100 || !taken {
		t.Errorf("call prediction = %d,%v", next, taken)
	}
	ret := isa.Inst{Op: isa.JR, Ra: isa.RA}
	next, _ = u.PredictNext(120, ret)
	if next != 6 {
		t.Errorf("return prediction = %d, want 6", next)
	}
}

func TestUnitIndirectUsesBTBAfterResolve(t *testing.T) {
	u := NewUnit(NewPaperCombined())
	jr := isa.Inst{Op: isa.JR, Ra: isa.R5}
	// First time: no info, fall-through guess, wrong.
	next, _ := u.PredictNext(50, jr)
	if next != 51 {
		t.Errorf("cold indirect prediction = %d, want 51", next)
	}
	if u.Resolve(50, jr, 300, true, next) {
		t.Error("cold prediction should be wrong")
	}
	// RAS is empty (no call), so BTB should now supply the target.
	next, _ = u.PredictNext(50, jr)
	if next != 300 {
		t.Errorf("warm indirect prediction = %d, want 300", next)
	}
}

func TestUnitAccuracyAccounting(t *testing.T) {
	u := NewUnit(Static{TakenAlways: true})
	br := isa.Inst{Op: isa.BEQ, Ra: isa.R1, Rb: isa.R2, Target: 9}
	next, _ := u.PredictNext(3, br)
	u.Resolve(3, br, 9, true, next)  // correct
	u.Resolve(3, br, 4, false, next) // wrong
	if u.CondSeen != 2 || u.CondHit != 1 {
		t.Errorf("cond stats = %d/%d", u.CondHit, u.CondSeen)
	}
	if acc := u.Accuracy(); acc != 0.5 {
		t.Errorf("accuracy = %v, want 0.5", acc)
	}
}

func TestEmptyUnitAccuracyIsOne(t *testing.T) {
	u := NewUnit(Static{})
	if u.Accuracy() != 1.0 {
		t.Error("accuracy with no branches must be 1.0")
	}
}

// Property: counters stay in [0,3] under arbitrary update sequences.
func TestCounterRangeProperty(t *testing.T) {
	f := func(ops []bool) bool {
		c := Counter2(0)
		for _, up := range ops {
			if up {
				c = c.Inc()
			} else {
				c = c.Dec()
			}
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: bimodal prediction equals majority bias after sustained
// training in one direction.
func TestBimodalConvergenceProperty(t *testing.T) {
	f := func(pc uint16, dir bool) bool {
		b := NewBimodal(2048)
		for i := 0; i < 4; i++ {
			b.Update(int(pc), dir)
		}
		return b.Predict(int(pc)) == dir
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestUnitResetMatchesFresh: a trained unit, once Reset, predicts and
// counts exactly like a newly built one over the same branch stream.
func TestUnitResetMatchesFresh(t *testing.T) {
	br := isa.Inst{Op: isa.BEQ, Ra: isa.R1, Rb: isa.R2, Target: 9}
	call := isa.Inst{Op: isa.JAL, Rd: isa.RA, Target: 200}
	ret := isa.Inst{Op: isa.JR, Ra: isa.RA}
	jr := isa.Inst{Op: isa.JR, Ra: isa.R5}
	// drive feeds a fixed mixed stream and records every predicted PC.
	drive := func(u *Unit) []int {
		var preds []int
		for i := 0; i < 300; i++ {
			pc := 3 + i%7*64
			next, _ := u.PredictNext(pc, br)
			taken := i%3 != 0
			actual := pc + 1
			if taken {
				actual = 9
			}
			u.Resolve(pc, br, actual, taken, next)
			preds = append(preds, next)
			if i%10 == 0 {
				next, _ = u.PredictNext(100, call)
				u.Resolve(100, call, 200, true, next)
				next, _ = u.PredictNext(250, ret)
				u.Resolve(250, ret, 101, true, next)
				preds = append(preds, next)
				next, _ = u.PredictNext(50, jr)
				u.Resolve(50, jr, 300+i, true, next)
				preds = append(preds, next)
			}
		}
		return preds
	}
	used := NewUnit(NewPaperCombined())
	drive(used)
	used.Reset()
	fresh := NewUnit(NewPaperCombined())
	got, want := drive(used), drive(fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d after Reset = %d, fresh unit predicts %d", i, got[i], want[i])
		}
	}
	if used.CondSeen != fresh.CondSeen || used.CondHit != fresh.CondHit ||
		used.TargetSeen != fresh.TargetSeen || used.TargetHit != fresh.TargetHit {
		t.Errorf("stats after Reset %d/%d %d/%d, fresh %d/%d %d/%d",
			used.CondHit, used.CondSeen, used.TargetHit, used.TargetSeen,
			fresh.CondHit, fresh.CondSeen, fresh.TargetHit, fresh.TargetSeen)
	}
}
