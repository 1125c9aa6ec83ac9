package vpred

// TwoDelta is the 2-delta stride predictor (Eickemeyer & Vassiliadis;
// used by Sazeides et al., the paper's reference [19]): the prediction
// stride s1 is replaced by a newly observed stride only after that
// stride has been seen twice in a row (tracked in s2). This filters the
// one-off stride breaks at loop boundaries that reset the plain stride
// predictor's confidence, and stands in for the paper's closing remark
// that "the results will likely be better with more complex and more
// effective predictors".
type TwoDelta struct {
	table   []tdEntry
	mask    int // configured entries - 1; storage grows as in Stride
	stats   Stats
	confMax uint8
}

type tdEntry struct {
	last uint64
	s1   int64 // predicting stride
	s2   int64 // candidate stride
	conf uint8
}

// NewTwoDelta builds a 2-delta predictor with the given table size (a
// positive power of two).
func NewTwoDelta(entries int) *TwoDelta {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("vpred: table entries must be a positive power of two")
	}
	return &TwoDelta{table: make([]tdEntry, min(entries, initTableEntries)), mask: entries - 1, confMax: 3}
}

// Entries returns the configured table size.
func (t *TwoDelta) Entries() int { return t.mask + 1 }

// PredictAndTrain implements Predictor.
func (t *TwoDelta) PredictAndTrain(pc, opIdx int, isFP bool, actual uint64) (uint64, bool, bool) {
	if isFP {
		return 0, false, false
	}
	t.stats.Lookups++
	i := (pc<<1 | opIdx&1) & t.mask
	if i >= len(t.table) {
		t.table = grown(t.table, i)
	}
	e := &t.table[i]
	pred := e.last + uint64(e.s1)
	confident := e.conf > 2
	correct := pred == actual
	if confident {
		t.stats.Confident++
		if correct {
			t.stats.ConfidentCorrect++
		}
	}
	newStride := int64(actual - e.last)
	switch {
	case correct:
		if e.conf < t.confMax {
			e.conf++
		}
	case newStride == e.s2:
		// The same stride appeared twice in a row: promote it to the
		// predicting stride. One-off breaks (loop wraps) never repeat
		// consecutively, so they no longer disturb s1.
		e.s1 = newStride
		e.conf = 0
	default:
		e.conf = 0
	}
	// s2 always tracks the most recent observed stride.
	e.s2 = newStride
	e.last = actual
	return pred, confident, correct
}

// Stats implements Predictor.
func (t *TwoDelta) Stats() Stats { return t.stats }

var _ Predictor = (*TwoDelta)(nil)
