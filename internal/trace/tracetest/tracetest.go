// Package tracetest builds .cvt traces for tests that are valid
// containers but break one of the two facts the in-memory form rebuilds
// instead of storing: a record's next PC is the following record's PC,
// and its source values are what the replayed register file holds.
// Such a trace has no in-memory form and must replay through the
// streaming Reader. The trace fuzz seeds and the runner's fallback test
// share them.
package tracetest

import (
	"bytes"

	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// Every trace here is the first prefixRecords records of rawcaudio at
// scale 1 with one record edited at or after editFrom.
const (
	prefixRecords = 2000
	editFrom      = prefixRecords / 2
)

// SourceOffModel returns a trace in which one record's first source
// value is not the value the register file holds: it is one more.
func SourceOffModel() ([]byte, error) {
	return encode(func(recs []trace.DynInst) []trace.DynInst {
		for i := editFrom; i < len(recs); i++ {
			if recs[i].Info().NumSrc > 0 {
				recs[i].SrcVal[0]++
				break
			}
		}
		return recs
	})
}

// PCOffModel returns a trace in which one record's PC is not the
// previous record's next PC: a store is dropped. A store writes no
// register, so every source value still matches the register file.
func PCOffModel() ([]byte, error) {
	return encode(func(recs []trace.DynInst) []trace.DynInst {
		for i := editFrom; i < len(recs); i++ {
			if recs[i].Info().IsStore {
				recs = append(recs[:i], recs[i+1:]...)
				break
			}
		}
		return recs
	})
}

// encode runs the executor prefix through edit and writes the result
// as a .cvt container.
func encode(edit func([]trace.DynInst) []trace.DynInst) ([]byte, error) {
	k, err := workload.ByName("rawcaudio")
	if err != nil {
		return nil, err
	}
	prog := k.Build(1)
	exec := trace.NewExecutor(prog)
	recs := make([]trace.DynInst, 0, prefixRecords)
	var d trace.DynInst
	for len(recs) < prefixRecords && exec.Next(&d) {
		recs = append(recs, d)
	}
	if err := exec.Err(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, prog.Name, prog.Code)
	if err != nil {
		return nil, err
	}
	for _, r := range edit(recs) {
		if err := w.Write(&r); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
