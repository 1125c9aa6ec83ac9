package workload

import (
	"clustervp/internal/isa"
	"clustervp/internal/program"
)

func init() {
	register(Kernel{
		Name:        "g721enc",
		Category:    "audio",
		Description: "G.721 ADPCM encode signature: per-sample branchy quantizer tree with adaptive step table",
		Build:       buildG721Enc,
	})
	register(Kernel{
		Name:        "gsmdec",
		Category:    "audio",
		Description: "GSM decode signature: short-term LPC synthesis (serial IIR lattice)",
		Build:       buildGsmDec,
	})
	register(Kernel{
		Name:        "gsmenc",
		Category:    "audio",
		Description: "GSM encode signature: autocorrelation of speech frames (multiply-accumulate)",
		Build:       buildGsmEnc,
	})
	register(Kernel{
		Name:        "rawcaudio",
		Category:    "audio",
		Description: "IMA ADPCM encode signature: nibble quantization with step-size table adaptation",
		Build:       buildRawCAudio,
	})
	register(Kernel{
		Name:        "rasta",
		Category:    "audio",
		Description: "RASTA-PLP signature: FP IIR band filtering plus energy accumulation",
		FPHeavy:     true,
		Build:       buildRasta,
	})
}

// imaStepTable is the first part of the IMA ADPCM step table.
var imaStepTable = []int64{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
	34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
	157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
	724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272, 2499, 2749, 3024,
}

var imaIndexAdjust = []int64{-1, -1, -1, -1, 2, 4, 6, 8}

// buildG721Enc: per sample, compute diff = x - predicted, quantize the
// magnitude through a comparison tree against scaled step thresholds,
// update the predictor and step index. Serial dependence through the
// predictor, branch-heavy — the classic ADPCM profile.
func buildG721Enc(scale int, seed uint64) *program.Program {
	n := 3000 * scale
	b := program.NewBuilder("g721enc")
	in := b.DataWords(smoothSamples(0x6721^splitmix64(seed), n, 8000))
	steps := b.DataWords(imaStepTable)
	adj := b.DataWords(imaIndexAdjust)
	chk := b.Reserve(8)

	const (
		rI     = isa.R20
		rN     = isa.R21
		rIn    = isa.R10
		rSteps = isa.R11
		rAdj   = isa.R12
		rPred  = isa.R1 // predictor state
		rIdx   = isa.R2 // step index
		rX     = isa.R3
		rDiff  = isa.R4
		rStep  = isa.R5
		rCode  = isa.R6
		rT     = isa.R7
		rSign  = isa.R8
		rChk   = isa.R9
		rMaxI  = isa.R13
	)

	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rIn, in)
	b.Li(rSteps, steps)
	b.Li(rAdj, adj)
	b.Li(rPred, 0)
	b.Li(rIdx, 0)
	b.Li(rChk, 0)
	b.Li(rMaxI, 63)

	b.Label("sample")
	{
		b.I(isa.SLLI, rT, rI, 3)
		b.R(isa.ADD, rT, rT, rIn)
		b.Load(isa.LW, rX, rT, 0)
		b.R(isa.SUB, rDiff, rX, rPred)
		// sign and magnitude
		b.Li(rSign, 0)
		b.Br(isa.BGE, rDiff, isa.R0, "pos")
		b.Li(rSign, 1)
		b.R(isa.SUB, rDiff, isa.R0, rDiff)
		b.Label("pos")
		// step = steps[idx]
		b.I(isa.SLLI, rT, rIdx, 3)
		b.R(isa.ADD, rT, rT, rSteps)
		b.Load(isa.LW, rStep, rT, 0)
		// Quantize: code = 0..3 via comparison tree (diff vs step, 2*step, 4*step)
		b.Li(rCode, 0)
		b.Br(isa.BLT, rDiff, rStep, "quantized")
		b.Li(rCode, 1)
		b.I(isa.SLLI, rT, rStep, 1)
		b.Br(isa.BLT, rDiff, rT, "quantized")
		b.Li(rCode, 2)
		b.I(isa.SLLI, rT, rStep, 2)
		b.Br(isa.BLT, rDiff, rT, "quantized")
		b.Li(rCode, 3)
		b.Label("quantized")
		// Reconstruct: delta = step*(2*code+1)/2 ; pred += sign? -delta : delta
		b.I(isa.SLLI, rT, rCode, 1)
		b.I(isa.ADDI, rT, rT, 1)
		b.R(isa.MUL, rT, rT, rStep)
		b.I(isa.SRAI, rT, rT, 1)
		b.Br(isa.BEQ, rSign, isa.R0, "posupd")
		b.R(isa.SUB, rPred, rPred, rT)
		b.Jmp("updated")
		b.Label("posupd")
		b.R(isa.ADD, rPred, rPred, rT)
		b.Label("updated")
		// idx += adjust[code] clamped to [0,63]
		b.I(isa.SLLI, rT, rCode, 3)
		b.R(isa.ADD, rT, rT, rAdj)
		b.Load(isa.LW, rT, rT, 0)
		b.R(isa.ADD, rIdx, rIdx, rT)
		b.Br(isa.BGE, rIdx, isa.R0, "idxlo")
		b.Li(rIdx, 0)
		b.Label("idxlo")
		b.Br(isa.BGE, rMaxI, rIdx, "idxok")
		b.Li(rIdx, 63)
		b.Label("idxok")
		// checksum: fold the code and sign bits
		b.I(isa.SLLI, rT, rCode, 1)
		b.R(isa.OR, rT, rT, rSign)
		b.I(isa.SLLI, rChk, rChk, 3)
		b.R(isa.XOR, rChk, rChk, rT)
		b.I(isa.ADDI, rI, rI, 1)
		b.Br(isa.BLT, rI, rN, "sample")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Halt()
	return b.MustBuild()
}

// buildGsmDec: y[i] = x[i] + (a1*y[i-1] + a2*y[i-2]) >> 12 — a serial
// second-order IIR synthesis filter with fixed-point coefficients.
func buildGsmDec(scale int, seed uint64) *program.Program {
	n := 4000 * scale
	b := program.NewBuilder("gsmdec")
	in := b.DataWords(smoothSamples(0x65D^splitmix64(seed), n, 2000))
	out := b.Reserve(n * 8)
	chk := b.Reserve(8)

	const (
		rI   = isa.R20
		rN   = isa.R21
		rIn  = isa.R10
		rOut = isa.R11
		rY1  = isa.R1
		rY2  = isa.R2
		rX   = isa.R3
		rA   = isa.R4
		rT   = isa.R5
		rA1  = isa.R6
		rA2  = isa.R7
		rChk = isa.R9
	)

	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rIn, in)
	b.Li(rOut, out)
	b.Li(rY1, 0)
	b.Li(rY2, 0)
	b.Li(rA1, 3100) // ~0.757 in Q12
	b.Li(rA2, -1500)
	b.Li(rChk, 0)

	b.Label("sample")
	{
		b.I(isa.SLLI, rT, rI, 3)
		b.R(isa.ADD, rT, rT, rIn)
		b.Load(isa.LW, rX, rT, 0)
		b.R(isa.MUL, rA, rA1, rY1)
		b.R(isa.MUL, rT, rA2, rY2)
		b.R(isa.ADD, rA, rA, rT)
		b.I(isa.SRAI, rA, rA, 12)
		b.R(isa.ADD, rX, rX, rA)
		b.Mov(rY2, rY1)
		b.Mov(rY1, rX)
		b.I(isa.SLLI, rT, rI, 3)
		b.R(isa.ADD, rT, rT, rOut)
		b.Store(isa.SW, rX, rT, 0)
		b.R(isa.XOR, rChk, rChk, rX)
		b.I(isa.ADDI, rI, rI, 1)
		b.Br(isa.BLT, rI, rN, "sample")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Halt()
	return b.MustBuild()
}

// buildGsmEnc: autocorrelation r[k] = sum_n x[n]*x[n-k] for k = 0..8 over
// speech frames — the multiply-accumulate core of GSM's LPC analysis.
func buildGsmEnc(scale int, seed uint64) *program.Program {
	frames := 12 * scale
	frameLen := 160
	lags := 9
	n := frames * frameLen
	b := program.NewBuilder("gsmenc")
	in := b.DataWords(smoothSamples(0x65E^splitmix64(seed), n, 4000))
	acf := b.Reserve(lags * 8)
	chk := b.Reserve(8)

	const (
		rF    = isa.R20
		rNF   = isa.R21
		rK    = isa.R22
		rNK   = isa.R23
		rN    = isa.R24
		rBase = isa.R10
		rAcf  = isa.R11
		rI    = isa.R12
		rAcc  = isa.R1
		rX    = isa.R2
		rY    = isa.R3
		rT    = isa.R4
		rChk  = isa.R9
	)

	b.Li(rF, 0)
	b.Li(rNF, int64(frames))
	b.Li(rNK, int64(lags))
	b.Li(rN, int64(frameLen))
	b.Li(rBase, in)
	b.Li(rAcf, acf)
	b.Li(rChk, 0)

	b.Label("frame")
	{
		b.Li(rK, 0)
		b.Label("lag")
		{
			b.Li(rAcc, 0)
			b.Mov(rI, rK)
			b.Label("mac")
			{
				b.I(isa.SLLI, rT, rI, 3)
				b.R(isa.ADD, rT, rT, rBase)
				b.Load(isa.LW, rX, rT, 0) // x[n]
				b.I(isa.SLLI, rT, rK, 3)
				b.R(isa.SUB, rT, isa.R0, rT)
				b.I(isa.SLLI, rY, rI, 3)
				b.R(isa.ADD, rT, rT, rY)
				b.R(isa.ADD, rT, rT, rBase)
				b.Load(isa.LW, rY, rT, 0) // x[n-k]
				b.R(isa.MUL, rX, rX, rY)
				b.R(isa.ADD, rAcc, rAcc, rX)
				b.I(isa.ADDI, rI, rI, 1)
				b.Br(isa.BLT, rI, rN, "mac")
			}
			b.I(isa.SLLI, rT, rK, 3)
			b.R(isa.ADD, rT, rT, rAcf)
			b.Store(isa.SW, rAcc, rT, 0)
			b.R(isa.XOR, rChk, rChk, rAcc)
			b.I(isa.ADDI, rK, rK, 1)
			b.Br(isa.BLT, rK, rNK, "lag")
		}
		b.I(isa.ADDI, rBase, rBase, int64(frameLen*8))
		b.I(isa.ADDI, rF, rF, 1)
		b.Br(isa.BLT, rF, rNF, "frame")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Halt()
	return b.MustBuild()
}

// buildRawCAudio: IMA ADPCM with 4-bit codes and table-driven step
// adaptation; similar to g721enc but with the full nibble loop and output
// packing (shifts/ors), like MediaBench's rawcaudio.
func buildRawCAudio(scale int, seed uint64) *program.Program {
	n := 3200 * scale
	b := program.NewBuilder("rawcaudio")
	in := b.DataWords(smoothSamples(0xADCA^splitmix64(seed), n, 12000))
	steps := b.DataWords(imaStepTable)
	adj := b.DataWords(imaIndexAdjust)
	out := b.Reserve(n) // one byte per two samples, over-reserved
	chk := b.Reserve(8)

	const (
		rI     = isa.R20
		rN     = isa.R21
		rIn    = isa.R10
		rSteps = isa.R11
		rAdj   = isa.R12
		rOut   = isa.R13
		rPred  = isa.R1
		rIdx   = isa.R2
		rX     = isa.R3
		rDiff  = isa.R4
		rStep  = isa.R5
		rCode  = isa.R6
		rT     = isa.R7
		rPack  = isa.R8
		rChk   = isa.R9
		rMaxI  = isa.R14
		rPhase = isa.R15
		rOutP  = isa.R16
	)

	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rIn, in)
	b.Li(rSteps, steps)
	b.Li(rAdj, adj)
	b.Li(rOut, out)
	b.Mov(rOutP, rOut)
	b.Li(rPred, 0)
	b.Li(rIdx, 0)
	b.Li(rChk, 0)
	b.Li(rMaxI, 63)
	b.Li(rPhase, 0)
	b.Li(rPack, 0)

	b.Label("sample")
	{
		b.I(isa.SLLI, rT, rI, 3)
		b.R(isa.ADD, rT, rT, rIn)
		b.Load(isa.LW, rX, rT, 0)
		b.R(isa.SUB, rDiff, rX, rPred)
		b.Li(rCode, 0)
		b.Br(isa.BGE, rDiff, isa.R0, "mag")
		b.Li(rCode, 8) // sign bit
		b.R(isa.SUB, rDiff, isa.R0, rDiff)
		b.Label("mag")
		b.I(isa.SLLI, rT, rIdx, 3)
		b.R(isa.ADD, rT, rT, rSteps)
		b.Load(isa.LW, rStep, rT, 0)
		// 3-bit magnitude via successive halving comparisons.
		b.Br(isa.BLT, rDiff, rStep, "bit2done")
		b.I(isa.ORI, rCode, rCode, 4)
		b.R(isa.SUB, rDiff, rDiff, rStep)
		b.Label("bit2done")
		b.I(isa.SRAI, rStep, rStep, 1)
		b.Br(isa.BLT, rDiff, rStep, "bit1done")
		b.I(isa.ORI, rCode, rCode, 2)
		b.R(isa.SUB, rDiff, rDiff, rStep)
		b.Label("bit1done")
		b.I(isa.SRAI, rStep, rStep, 1)
		b.Br(isa.BLT, rDiff, rStep, "bit0done")
		b.I(isa.ORI, rCode, rCode, 1)
		b.Label("bit0done")
		// Reconstruct predictor from code (sign in bit 3).
		b.I(isa.SLLI, rT, rIdx, 3)
		b.R(isa.ADD, rT, rT, rSteps)
		b.Load(isa.LW, rStep, rT, 0)
		b.I(isa.ANDI, rT, rCode, 7)
		b.I(isa.SLLI, rT, rT, 1)
		b.I(isa.ADDI, rT, rT, 1)
		b.R(isa.MUL, rT, rT, rStep)
		b.I(isa.SRAI, rT, rT, 3)
		b.I(isa.ANDI, rDiff, rCode, 8)
		b.Br(isa.BEQ, rDiff, isa.R0, "addup")
		b.R(isa.SUB, rPred, rPred, rT)
		b.Jmp("predok")
		b.Label("addup")
		b.R(isa.ADD, rPred, rPred, rT)
		b.Label("predok")
		// idx adaptation via adjust table on the magnitude bits.
		b.I(isa.ANDI, rT, rCode, 7)
		b.I(isa.SLLI, rT, rT, 3)
		b.R(isa.ADD, rT, rT, rAdj)
		b.Load(isa.LW, rT, rT, 0)
		b.R(isa.ADD, rIdx, rIdx, rT)
		b.Br(isa.BGE, rIdx, isa.R0, "clamplo")
		b.Li(rIdx, 0)
		b.Label("clamplo")
		b.Br(isa.BGE, rMaxI, rIdx, "clamphi")
		b.Li(rIdx, 63)
		b.Label("clamphi")
		// Pack two 4-bit codes per byte.
		b.Br(isa.BNE, rPhase, isa.R0, "hi")
		b.Mov(rPack, rCode)
		b.Li(rPhase, 1)
		b.Jmp("packed")
		b.Label("hi")
		b.I(isa.SLLI, rT, rCode, 4)
		b.R(isa.OR, rPack, rPack, rT)
		b.Store(isa.SB, rPack, rOutP, 0)
		b.I(isa.ADDI, rOutP, rOutP, 1)
		b.R(isa.XOR, rChk, rChk, rPack)
		b.Li(rPhase, 0)
		b.Label("packed")
		b.I(isa.ADDI, rI, rI, 1)
		b.Br(isa.BLT, rI, rN, "sample")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Halt()
	return b.MustBuild()
}

// buildRasta: a bank of second-order FP IIR filters applied to the same
// input, then per-band energy accumulation — the filtering core of
// RASTA-PLP feature extraction.
func buildRasta(scale int, seed uint64) *program.Program {
	n := 1500 * scale
	bands := 8
	b := program.NewBuilder("rasta")
	in := b.DataFloats(floatSamples(0x4A57A^splitmix64(seed), n))
	// Per-band biquad coefficients (b0, b1, a1, a2).
	coefs := make([]float64, 0, bands*4)
	for k := 0; k < bands; k++ {
		f := 0.05 + 0.1*float64(k)
		coefs = append(coefs, 0.2+0.05*float64(k), 0.1, 1.6-f, -(0.64 + 0.02*float64(k)))
	}
	cf := b.DataFloats(coefs)
	energy := b.Reserve(bands * 8)
	chk := b.Reserve(8)

	const (
		rK    = isa.R20
		rNK   = isa.R21
		rI    = isa.R22
		rN    = isa.R23
		rIn   = isa.R10
		rCf   = isa.R11
		rEn   = isa.R12
		rT    = isa.R5
		fX    = isa.F1
		fY    = isa.F2
		fY1   = isa.F3
		fY2   = isa.F4
		fX1   = isa.F5
		fB0   = isa.F6
		fB1   = isa.F7
		fA1   = isa.F8
		fA2   = isa.F9
		fAcc  = isa.F10
		fTmp  = isa.F11
		rAddr = isa.R6
	)

	b.Li(rK, 0)
	b.Li(rNK, int64(bands))
	b.Li(rN, int64(n))
	b.Li(rIn, in)
	b.Li(rCf, cf)
	b.Li(rEn, energy)

	b.Label("band")
	{
		b.I(isa.SLLI, rT, rK, 5) // 4 coefs * 8 bytes
		b.R(isa.ADD, rAddr, rT, rCf)
		b.Load(isa.FLW, fB0, rAddr, 0)
		b.Load(isa.FLW, fB1, rAddr, 8)
		b.Load(isa.FLW, fA1, rAddr, 16)
		b.Load(isa.FLW, fA2, rAddr, 24)
		b.Fli(fY1, 0)
		b.Fli(fY2, 0)
		b.Fli(fX1, 0)
		b.Fli(fAcc, 0)
		b.Li(rI, 0)
		b.Label("sample")
		{
			b.I(isa.SLLI, rT, rI, 3)
			b.R(isa.ADD, rT, rT, rIn)
			b.Load(isa.FLW, fX, rT, 0)
			b.R(isa.FMUL, fY, fB0, fX)
			b.R(isa.FMUL, fTmp, fB1, fX1)
			b.R(isa.FADD, fY, fY, fTmp)
			b.R(isa.FMUL, fTmp, fA1, fY1)
			b.R(isa.FADD, fY, fY, fTmp)
			b.R(isa.FMUL, fTmp, fA2, fY2)
			b.R(isa.FADD, fY, fY, fTmp)
			b.Mov(fY2, fY1)
			b.Mov(fY1, fY)
			b.Mov(fX1, fX)
			b.R(isa.FMUL, fTmp, fY, fY)
			b.R(isa.FADD, fAcc, fAcc, fTmp)
			b.I(isa.ADDI, rI, rI, 1)
			b.Br(isa.BLT, rI, rN, "sample")
		}
		b.I(isa.SLLI, rT, rK, 3)
		b.R(isa.ADD, rT, rT, rEn)
		b.Store(isa.FSW, fAcc, rT, 0)
		b.I(isa.ADDI, rK, rK, 1)
		b.Br(isa.BLT, rK, rNK, "band")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, isa.R0, rT, 0)
	b.Halt()
	return b.MustBuild()
}
