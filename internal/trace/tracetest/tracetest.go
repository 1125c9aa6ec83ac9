// Package tracetest builds .cvt traces for tests that are valid
// containers but hold one record that re-executing the code does not
// give: a record's PC is the previous record's next PC, and every other
// field but a load's value follows from the code and the register file.
// Such a trace has no in-memory form and must replay through the
// streaming Reader. Each trace is off in exactly one field, so each of
// the in-memory form's comparisons is the only one that sees its trace.
// The trace fuzz seeds and the runner's fallback test share them.
package tracetest

import (
	"bytes"
	"fmt"

	"clustervp/internal/isa"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// Every trace here is the first prefixRecords records of a kernel at
// scale 1 with one record edited: rawcaudio, at or after editFrom,
// unless a generator says otherwise.
const (
	prefixRecords = 2000
	editFrom      = prefixRecords / 2
)

// OffModel names every generator in this package by the field its
// trace is off in, as ErrNoMemForm's message names it.
var OffModel = map[string]func() ([]byte, error){
	"source values": SourceOffModel,
	"pc":            PCOffModel,
	"next pc":       NextPCOffModel,
	"taken":         TakenOffModel,
	"address":       AddrOffModel,
	"destination":   DestOffModel,
}

// SourceOffModel returns a trace in which one record's first source
// value is not the value the register file holds: it is one more.
func SourceOffModel() ([]byte, error) {
	return edit(func(d *trace.DynInst) bool {
		if d.Info().NumSrc == 0 {
			return false
		}
		d.SrcVal[0]++
		return true
	})
}

// PCOffModel returns a trace in which one record's PC is not the
// previous record's next PC: a taken branch's PC names another copy of
// the same instruction. Its target does not depend on its PC, so every
// other field still matches. rawcaudio holds no such copy; g721enc
// holds two of one branch.
func PCOffModel() ([]byte, error) {
	return encode("g721enc", func(code []isa.Inst, recs []trace.DynInst) []trace.DynInst {
		for i := range recs {
			d := &recs[i]
			if !d.Taken || d.Inst.Op == isa.JAL {
				continue
			}
			for pc, in := range code {
				if in == d.Inst && pc != d.PC {
					d.PC = pc
					return recs
				}
			}
		}
		return nil
	})
}

// NextPCOffModel returns a trace in which one record's next PC is one
// more than its successor's PC.
func NextPCOffModel() ([]byte, error) {
	return edit(func(d *trace.DynInst) bool {
		d.NextPC++
		return true
	})
}

// TakenOffModel returns a trace in which one conditional branch's
// taken bit is flipped; its next PC is unchanged.
func TakenOffModel() ([]byte, error) {
	return edit(func(d *trace.DynInst) bool {
		if !d.Info().IsCondBranch {
			return false
		}
		d.Taken = !d.Taken
		return true
	})
}

// AddrOffModel returns a trace in which one memory access's address is
// not ra+imm: it is eight more.
func AddrOffModel() ([]byte, error) {
	return edit(func(d *trace.DynInst) bool {
		if info := d.Info(); !info.IsLoad && !info.IsStore {
			return false
		}
		d.Addr += 8
		return true
	})
}

// DestOffModel returns a trace in which one destination value that is
// not a load's is not the opcode's result: it is one more.
func DestOffModel() ([]byte, error) {
	return edit(func(d *trace.DynInst) bool {
		if info := d.Info(); !info.HasDest || info.IsLoad {
			return false
		}
		d.DstVal++
		return true
	})
}

// edit applies change to the first record of rawcaudio at or after
// editFrom that it accepts.
func edit(change func(*trace.DynInst) bool) ([]byte, error) {
	return encode("rawcaudio", func(_ []isa.Inst, recs []trace.DynInst) []trace.DynInst {
		for i := editFrom; i < len(recs); i++ {
			if change(&recs[i]) {
				return recs
			}
		}
		return nil
	})
}

// encode runs the executor prefix of kernel at scale 1 through change
// and writes the result as a .cvt container. change returns nil when it
// finds no record to edit.
func encode(kernel string, change func([]isa.Inst, []trace.DynInst) []trace.DynInst) ([]byte, error) {
	k, err := workload.ByName(kernel)
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
	if recs = change(prog.Code, recs); recs == nil {
		return nil, fmt.Errorf("tracetest: no record to edit in the %s prefix", kernel)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, prog.Name, prog.Code)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := w.Write(&r); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
