package workload

import (
	"clustervp/internal/isa"
	"clustervp/internal/program"
)

func init() {
	register(Kernel{
		Name:        "cjpeg",
		Category:    "image",
		Description: "JPEG encode signature: 1-D integer DCT (matrix-vector) plus quantization over 8-sample segments",
		Build:       buildCjpeg,
	})
	register(Kernel{
		Name:        "djpeg",
		Category:    "image",
		Description: "JPEG decode signature: dequantization and inverse DCT with saturation clamps",
		Build:       buildDjpeg,
	})
}

// dctCoef is an 8x8 integer cosine basis scaled by 1024, as libjpeg's
// jfdctint scales its constants.
func dctCoef() []int64 {
	// round(1024 * cos((2k+1)u*pi/16) * 0.5), with flat DC row.
	base := [8][8]int64{
		{362, 362, 362, 362, 362, 362, 362, 362},
		{502, 426, 284, 100, -100, -284, -426, -502},
		{473, 196, -196, -473, -473, -196, 196, 473},
		{426, -100, -502, -284, 284, 502, 100, -426},
		{362, -362, -362, 362, 362, -362, -362, 362},
		{284, -502, 100, 426, -426, -100, 502, -284},
		{196, -473, 473, -196, -196, 473, -473, 196},
		{100, -284, 426, -502, 502, -426, 284, -100},
	}
	out := make([]int64, 0, 64)
	for _, row := range base {
		out = append(out, row[:]...)
	}
	return out
}

var jpegQuant = []int64{16, 11, 10, 16, 24, 40, 51, 61}

// buildCjpeg: forward DCT. For each 8-sample segment s:
//
//	y[u] = (sum_k coef[u][k] * x[s*8+k]) >> 10, then y[u] /= q[u].
func buildCjpeg(scale int, seed uint64) *program.Program {
	segments := 48 * scale
	n := segments * 8
	b := program.NewBuilder("cjpeg")
	in := b.DataWords(smoothSamples(0xC19E6^splitmix64(seed), n, 255))
	coef := b.DataWords(dctCoef())
	// Quantization by reciprocal multiply, as libjpeg's DESCALE fast
	// path does: recip[u] = 65536/q[u], y = (acc*recip)>>16.
	recip := make([]int64, len(jpegQuant))
	for i, q := range jpegQuant {
		recip[i] = 65536 / q
	}
	quant := b.DataWords(recip)
	out := b.Reserve(n * 8)
	chk := b.Reserve(8)

	const (
		rSeg   = isa.R20 // segment counter
		rNSeg  = isa.R21
		rU     = isa.R22
		rK     = isa.R23
		rEight = isa.R24
		rIn    = isa.R10 // &x[s*8]
		rCoefU = isa.R11 // &coef[u*8]
		rOut   = isa.R12 // &y[s*8]
		rQ     = isa.R13
		rAcc   = isa.R1
		rX     = isa.R2
		rC     = isa.R3
		rT     = isa.R4
		rChk   = isa.R9
	)

	b.Li(rSeg, 0)
	b.Li(rNSeg, int64(segments))
	b.Li(rEight, 8)
	b.Li(rChk, 0)
	b.Li(rIn, in)
	b.Li(rOut, out)

	b.Label("seg")
	{
		b.Li(rU, 0)
		b.Li(rCoefU, coef)
		b.Li(rQ, quant)
		b.Label("u")
		{
			b.Li(rAcc, 0)
			b.Li(rK, 0)
			b.Label("k")
			{
				b.I(isa.SLLI, rT, rK, 3)
				b.R(isa.ADD, rT, rT, rIn)
				b.Load(isa.LW, rX, rT, 0) // x[s*8+k]
				b.I(isa.SLLI, rT, rK, 3)
				b.R(isa.ADD, rT, rT, rCoefU)
				b.Load(isa.LW, rC, rT, 0) // coef[u][k]
				b.R(isa.MUL, rX, rX, rC)
				b.R(isa.ADD, rAcc, rAcc, rX)
				b.I(isa.ADDI, rK, rK, 1)
				b.Br(isa.BLT, rK, rEight, "k")
			}
			b.I(isa.SRAI, rAcc, rAcc, 10)
			// Quantize: y = (y * recip[u&7]) >> 16.
			b.I(isa.ANDI, rT, rU, 7)
			b.I(isa.SLLI, rT, rT, 3)
			b.R(isa.ADD, rT, rT, rQ)
			b.Load(isa.LW, rC, rT, 0)
			b.R(isa.MUL, rAcc, rAcc, rC)
			b.I(isa.SRAI, rAcc, rAcc, 16)
			// Store y[s*8+u].
			b.I(isa.SLLI, rT, rU, 3)
			b.R(isa.ADD, rT, rT, rOut)
			b.Store(isa.SW, rAcc, rT, 0)
			b.R(isa.XOR, rChk, rChk, rAcc)
			b.I(isa.ADDI, rCoefU, rCoefU, 64)
			b.I(isa.ADDI, rU, rU, 1)
			b.Br(isa.BLT, rU, rEight, "u")
		}
		b.I(isa.ADDI, rIn, rIn, 64)
		b.I(isa.ADDI, rOut, rOut, 64)
		b.I(isa.ADDI, rSeg, rSeg, 1)
		b.Br(isa.BLT, rSeg, rNSeg, "seg")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Halt()
	return b.MustBuild()
}

// buildDjpeg: dequantize + inverse DCT + clamp to [0,255].
func buildDjpeg(scale int, seed uint64) *program.Program {
	segments := 40 * scale
	n := segments * 8
	b := program.NewBuilder("djpeg")
	in := b.DataWords(intSamples(0xD39E6^splitmix64(seed), n, 64))
	coef := b.DataWords(dctCoef())
	quant := b.DataWords(jpegQuant)
	out := b.Reserve(n * 8)
	chk := b.Reserve(8)

	const (
		rSeg   = isa.R20
		rNSeg  = isa.R21
		rK     = isa.R22
		rU     = isa.R23
		rEight = isa.R24
		rIn    = isa.R10
		rCoef  = isa.R11
		rOut   = isa.R12
		rQ     = isa.R13
		rAcc   = isa.R1
		rY     = isa.R2
		rC     = isa.R3
		rT     = isa.R4
		rLim   = isa.R5
		rChk   = isa.R9
	)

	b.Li(rSeg, 0)
	b.Li(rNSeg, int64(segments))
	b.Li(rEight, 8)
	b.Li(rChk, 0)
	b.Li(rIn, in)
	b.Li(rOut, out)
	b.Li(rLim, 255)

	b.Label("seg")
	{
		b.Li(rK, 0)
		b.Label("k")
		{
			b.Li(rAcc, 0)
			b.Li(rU, 0)
			b.Li(rCoef, coef)
			b.Li(rQ, quant)
			b.Label("u")
			{
				// yq = y[u] * q[u&7]  (dequantize)
				b.I(isa.SLLI, rT, rU, 3)
				b.R(isa.ADD, rT, rT, rIn)
				b.Load(isa.LW, rY, rT, 0)
				b.I(isa.ANDI, rT, rU, 7)
				b.I(isa.SLLI, rT, rT, 3)
				b.R(isa.ADD, rT, rT, rQ)
				b.Load(isa.LW, rC, rT, 0)
				b.R(isa.MUL, rY, rY, rC)
				// acc += coef[u][k] * yq  (transpose basis)
				b.I(isa.SLLI, rT, rK, 3)
				b.R(isa.ADD, rT, rT, rCoef)
				b.Load(isa.LW, rC, rT, 0)
				b.R(isa.MUL, rY, rY, rC)
				b.R(isa.ADD, rAcc, rAcc, rY)
				b.I(isa.ADDI, rCoef, rCoef, 64)
				b.I(isa.ADDI, rU, rU, 1)
				b.Br(isa.BLT, rU, rEight, "u")
			}
			b.I(isa.SRAI, rAcc, rAcc, 14)
			b.I(isa.ADDI, rAcc, rAcc, 128) // level shift
			// Clamp to [0, 255] — the branchy saturation of every decoder.
			b.Br(isa.BGE, rAcc, isa.R0, "nonneg")
			b.Li(rAcc, 0)
			b.Jmp("clamped")
			b.Label("nonneg")
			b.Br(isa.BGE, rLim, rAcc, "clamped")
			b.Li(rAcc, 255)
			b.Label("clamped")
			b.I(isa.SLLI, rT, rK, 3)
			b.R(isa.ADD, rT, rT, rOut)
			b.Store(isa.SW, rAcc, rT, 0)
			b.R(isa.ADD, rChk, rChk, rAcc)
			b.I(isa.ADDI, rK, rK, 1)
			b.Br(isa.BLT, rK, rEight, "k")
		}
		b.I(isa.ADDI, rIn, rIn, 64)
		b.I(isa.ADDI, rOut, rOut, 64)
		b.I(isa.ADDI, rSeg, rSeg, 1)
		b.Br(isa.BLT, rSeg, rNSeg, "seg")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Halt()
	return b.MustBuild()
}
