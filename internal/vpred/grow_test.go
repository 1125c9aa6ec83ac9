package vpred

import (
	"math/rand"
	"testing"
)

// The predictor tables allocate storage only as far as indices have
// been touched. These reference models allocate the configured size up
// front, as the tables once did; every prediction and the final Stats
// must match them exactly.

type refStride struct {
	table   []entry
	stats   Stats
	coverFP bool
}

func (r *refStride) PredictAndTrain(pc, opIdx int, isFP bool, actual uint64) (uint64, bool, bool) {
	if isFP && !r.coverFP {
		return 0, false, false
	}
	r.stats.Lookups++
	e := &r.table[(pc<<1|opIdx&1)&(len(r.table)-1)]
	pred := e.last + uint64(e.stride)
	confident, correct := e.conf > 2, pred == actual
	if confident {
		r.stats.Confident++
		if correct {
			r.stats.ConfidentCorrect++
		}
	}
	if correct {
		e.conf = min(e.conf+1, 3)
	} else {
		e.conf = 0
		e.stride = int64(actual - e.last)
	}
	e.last = actual
	return pred, confident, correct
}

func (r *refStride) Stats() Stats { return r.stats }

type refTwoDelta struct {
	table []tdEntry
	stats Stats
}

func (r *refTwoDelta) PredictAndTrain(pc, opIdx int, isFP bool, actual uint64) (uint64, bool, bool) {
	if isFP {
		return 0, false, false
	}
	r.stats.Lookups++
	e := &r.table[(pc<<1|opIdx&1)&(len(r.table)-1)]
	pred := e.last + uint64(e.s1)
	confident, correct := e.conf > 2, pred == actual
	if confident {
		r.stats.Confident++
		if correct {
			r.stats.ConfidentCorrect++
		}
	}
	stride := int64(actual - e.last)
	switch {
	case correct:
		e.conf = min(e.conf+1, 3)
	case stride == e.s2:
		e.s1, e.conf = stride, 0
	default:
		e.conf = 0
	}
	e.s2, e.last = stride, actual
	return pred, confident, correct
}

func (r *refTwoDelta) Stats() Stats { return r.stats }

// operandStream replays a seeded mix of strided, constant and random
// operand values over a set of static PCs; a third of the PCs lie above
// 64K, so their indices reach the top half of a 128K-entry table.
type operandStream struct {
	rng    *rand.Rand
	pcs    []int
	last   []uint64
	stride []uint64
}

func newOperandStream(seed int64) *operandStream {
	rng := rand.New(rand.NewSource(seed))
	s := &operandStream{rng: rng}
	for i := 0; i < 96; i++ {
		pc := rng.Intn(600)
		if i%3 == 0 {
			pc = 64<<10 + rng.Intn(64<<10)
		}
		s.pcs = append(s.pcs, pc)
		s.last = append(s.last, rng.Uint64(), rng.Uint64())
		s.stride = append(s.stride, uint64(rng.Intn(5)), uint64(rng.Intn(17)-8))
	}
	return s
}

// next returns one (pc, opIdx, isFP, value) lookup.
func (s *operandStream) next() (int, int, bool, uint64) {
	i := s.rng.Intn(len(s.pcs))
	op := s.rng.Intn(2)
	k := 2*i + op
	if s.rng.Intn(10) == 0 {
		s.last[k] = s.rng.Uint64()
	} else {
		s.last[k] += s.stride[k]
	}
	return s.pcs[i], op, s.rng.Intn(5) == 0, s.last[k]
}

// storage is the number of entries a predictor table has allocated.
func storage(p Predictor) int {
	switch p := p.(type) {
	case *Stride:
		return len(p.table)
	case *TwoDelta:
		return len(p.table)
	}
	panic("storage: not a table predictor")
}

// TestGrownTablesMatchDenseReference drives Stride, Stride with CoverFP
// and TwoDelta at the default 128K entries (PCs above 64K force growth
// to the full table) and at 256 entries (heavy aliasing) against
// dense-table models over seeded operand streams.
func TestGrownTablesMatchDenseReference(t *testing.T) {
	type subject interface {
		Predictor
		Entries() int
	}
	for _, entries := range []int{DefaultTableEntries, 256} {
		for _, c := range []struct {
			name string
			mk   func() (subject, Predictor)
		}{
			{"stride", func() (subject, Predictor) {
				return NewStride(entries), &refStride{table: make([]entry, entries)}
			}},
			{"stride-coverfp", func() (subject, Predictor) {
				s := NewStride(entries)
				s.CoverFP = true
				return s, &refStride{table: make([]entry, entries), coverFP: true}
			}},
			{"twodelta", func() (subject, Predictor) {
				return NewTwoDelta(entries), &refTwoDelta{table: make([]tdEntry, entries)}
			}},
		} {
			for seed := int64(1); seed <= 3; seed++ {
				got, want := c.mk()
				if n := storage(got); n > initTableEntries {
					t.Fatalf("%s/%d: starts with %d entries of storage, want at most %d", c.name, entries, n, initTableEntries)
				}
				src := newOperandStream(seed)
				for i := 0; i < 200_000; i++ {
					pc, op, fp, v := src.next()
					gv, gc, gk := got.PredictAndTrain(pc, op, fp, v)
					wv, wc, wk := want.PredictAndTrain(pc, op, fp, v)
					if gv != wv || gc != wc || gk != wk {
						t.Fatalf("%s/%d seed %d lookup %d (pc %d op %d fp %v): got (%#x,%v,%v), reference (%#x,%v,%v)",
							c.name, entries, seed, i, pc, op, fp, gv, gc, gk, wv, wc, wk)
					}
				}
				if g, w := got.Stats(), want.Stats(); g != w {
					t.Errorf("%s/%d seed %d: Stats %+v, reference %+v", c.name, entries, seed, g, w)
				}
				if w := want.Stats(); w.Confident == 0 || w.ConfidentCorrect == w.Confident {
					t.Errorf("%s/%d seed %d: stream exercises no confident misses: %+v", c.name, entries, seed, w)
				}
				if got.Entries() != entries {
					t.Errorf("%s: Entries() = %d, want the configured %d", c.name, got.Entries(), entries)
				}
				if n := storage(got); n != entries {
					t.Errorf("%s/%d: storage %d after indexing the top half, want %d", c.name, entries, n, entries)
				}
			}
		}
	}
}
