package workload

import (
	"clustervp/internal/isa"
	"clustervp/internal/program"
)

func init() {
	register(Kernel{
		Name:        "epicenc",
		Category:    "image",
		Description: "EPIC encode signature: multi-level Haar-style wavelet analysis (paired lowpass/highpass, strided)",
		Build:       buildEpicEnc,
	})
	register(Kernel{
		Name:        "epicdec",
		Category:    "image",
		Description: "EPIC decode signature: wavelet synthesis plus zero-run scanning with data-dependent branches",
		Build:       buildEpicDec,
	})
}

// buildEpicEnc: levels of l[i] = (x[2i]+x[2i+1])>>1, h[i] = x[2i]-x[2i+1],
// rewriting in place so deeper levels reread the lowpass band.
func buildEpicEnc(scale int, seed uint64) *program.Program {
	n := 2048 * scale // power-of-two sample count
	levels := 6
	b := program.NewBuilder("epicenc")
	in := b.DataWords(smoothSamples(0xE51C^splitmix64(seed), n, 1023))
	tmp := b.Reserve(n * 8)
	chk := b.Reserve(8)

	const (
		rLvl  = isa.R20
		rNLvl = isa.R21
		rLen  = isa.R22 // current band length
		rI    = isa.R23
		rHalf = isa.R24
		rIn   = isa.R10
		rTmp  = isa.R11
		rA    = isa.R1
		rB    = isa.R2
		rL    = isa.R3
		rH    = isa.R4
		rT    = isa.R5
		rT2   = isa.R6
		rChk  = isa.R9
	)

	b.Li(rLvl, 0)
	b.Li(rNLvl, int64(levels))
	b.Li(rLen, int64(n))
	b.Li(rChk, 0)

	b.Label("level")
	{
		b.I(isa.SRAI, rHalf, rLen, 1)
		b.Li(rI, 0)
		b.Li(rIn, in)
		b.Li(rTmp, tmp)
		b.Label("pair")
		{
			b.I(isa.SLLI, rT, rI, 4) // &x[2i] = in + 16*i
			b.R(isa.ADD, rT, rT, rIn)
			b.Load(isa.LW, rA, rT, 0)
			b.Load(isa.LW, rB, rT, 8)
			b.R(isa.ADD, rL, rA, rB)
			b.I(isa.SRAI, rL, rL, 1)
			b.R(isa.SUB, rH, rA, rB)
			// tmp[i] = l ; tmp[half+i] = h
			b.I(isa.SLLI, rT, rI, 3)
			b.R(isa.ADD, rT, rT, rTmp)
			b.Store(isa.SW, rL, rT, 0)
			b.I(isa.SLLI, rT2, rHalf, 3)
			b.R(isa.ADD, rT, rT, rT2)
			b.Store(isa.SW, rH, rT, 0)
			// Additive fold (XOR of near-symmetric highpass values can
			// cancel to zero).
			b.R(isa.ADD, rChk, rChk, rH)
			b.R(isa.ADD, rChk, rChk, rL)
			b.I(isa.ADDI, rI, rI, 1)
			b.Br(isa.BLT, rI, rHalf, "pair")
		}
		// Copy tmp back to in for the next level (whole band).
		b.Li(rI, 0)
		b.Label("copy")
		{
			b.I(isa.SLLI, rT, rI, 3)
			b.R(isa.ADD, rT2, rT, rTmp)
			b.Load(isa.LW, rA, rT2, 0)
			b.R(isa.ADD, rT2, rT, rIn)
			b.Store(isa.SW, rA, rT2, 0)
			b.I(isa.ADDI, rI, rI, 1)
			b.Br(isa.BLT, rI, rLen, "copy")
		}
		b.Mov(rLen, rHalf)
		b.I(isa.ADDI, rLvl, rLvl, 1)
		b.Br(isa.BLT, rLvl, rNLvl, "level")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Halt()
	return b.MustBuild()
}

// buildEpicDec: one synthesis level (x[2i]=l+((h+1)>>1), x[2i+1]=x[2i]-h)
// followed by a zero-run scan that counts runs of small coefficients —
// highly data-dependent branching, like EPIC's run-length decoder.
func buildEpicDec(scale int, seed uint64) *program.Program {
	n := 2048 * scale
	b := program.NewBuilder("epicdec")
	// Sparse coefficients: mostly zero with occasional spikes.
	coeffs := intSamples(0xED4C^splitmix64(seed), n, 40)
	for i := range coeffs {
		if coeffs[i] > -30 && coeffs[i] < 30 {
			coeffs[i] = 0
		}
	}
	in := b.DataWords(coeffs)
	out := b.Reserve(n * 16)
	chk := b.Reserve(16)

	const (
		rI    = isa.R20
		rN    = isa.R21
		rHalf = isa.R22
		rIn   = isa.R10
		rOut  = isa.R11
		rL    = isa.R1
		rH    = isa.R2
		rE    = isa.R3
		rO    = isa.R4
		rT    = isa.R5
		rT2   = isa.R6
		rRun  = isa.R7
		rRuns = isa.R8
		rChk  = isa.R9
	)

	b.Li(rN, int64(n))
	b.I(isa.SRAI, rHalf, rN, 1)
	b.Li(rI, 0)
	b.Li(rIn, in)
	b.Li(rOut, out)
	b.Li(rChk, 0)

	b.Label("synth")
	{
		b.I(isa.SLLI, rT, rI, 3)
		b.R(isa.ADD, rT2, rT, rIn)
		b.Load(isa.LW, rL, rT2, 0) // l = in[i]
		b.I(isa.SLLI, rT, rHalf, 3)
		b.R(isa.ADD, rT2, rT2, rT)
		b.Load(isa.LW, rH, rT2, 0) // h = in[half+i]
		b.I(isa.ADDI, rE, rH, 1)
		b.I(isa.SRAI, rE, rE, 1)
		b.R(isa.ADD, rE, rE, rL) // even = l + (h+1)/2
		b.R(isa.SUB, rO, rE, rH) // odd  = even - h
		b.I(isa.SLLI, rT, rI, 4)
		b.R(isa.ADD, rT, rT, rOut)
		b.Store(isa.SW, rE, rT, 0)
		b.Store(isa.SW, rO, rT, 8)
		b.I(isa.ADDI, rI, rI, 1)
		b.Br(isa.BLT, rI, rHalf, "synth")
	}

	// Zero-run scan over the reconstructed signal.
	b.Li(rI, 0)
	b.Li(rRun, 0)
	b.Li(rRuns, 0)
	b.Label("scan")
	{
		b.I(isa.SLLI, rT, rI, 3)
		b.R(isa.ADD, rT, rT, rOut)
		b.Load(isa.LW, rE, rT, 0)
		b.Br(isa.BNE, rE, isa.R0, "nonzero")
		b.I(isa.ADDI, rRun, rRun, 1)
		b.Jmp("next")
		b.Label("nonzero")
		b.Br(isa.BEQ, rRun, isa.R0, "noflush")
		b.I(isa.ADDI, rRuns, rRuns, 1)
		b.R(isa.ADD, rChk, rChk, rRun)
		b.Li(rRun, 0)
		b.Label("noflush")
		b.R(isa.XOR, rChk, rChk, rE)
		b.Label("next")
		b.I(isa.ADDI, rI, rI, 1)
		b.Br(isa.BLT, rI, rN, "scan")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Store(isa.SW, rRuns, rT, 8)
	b.Halt()
	return b.MustBuild()
}
