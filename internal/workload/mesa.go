package workload

import (
	"clustervp/internal/isa"
	"clustervp/internal/program"
)

func init() {
	register(Kernel{
		Name:        "mesamipmap",
		Category:    "3D graphics",
		Description: "Mesa mipmap signature: 2x2 FP texel box-filter reduction across mip levels",
		FPHeavy:     true,
		Build:       buildMesaMipmap,
	})
	register(Kernel{
		Name:        "mesaosdemo",
		Category:    "3D graphics",
		Description: "Mesa osdemo signature: 4x4 matrix-vector vertex transform with perspective divide",
		FPHeavy:     true,
		Build:       buildMesaOsdemo,
	})
	register(Kernel{
		Name:        "mesatexgen",
		Category:    "3D graphics",
		Description: "Mesa texgen signature: per-vertex dot products and Newton-iteration reciprocal sqrt",
		FPHeavy:     true,
		Build:       buildMesaTexgen,
	})
}

// buildMesaMipmap: repeatedly halve a square FP image with a 2x2 box
// filter: out[y][x] = 0.25*(a+b+c+d). Strided FP loads, FP adds/muls.
func buildMesaMipmap(scale int, seed uint64) *program.Program {
	dim := 64 // 64x64 base level
	levels := 5
	reps := 2 * scale
	b := program.NewBuilder("mesamipmap")
	img := b.DataFloats(floatSamples(0x3144^splitmix64(seed), dim*dim))
	out := b.Reserve(dim * dim * 8 / 2)
	chk := b.Reserve(8)

	const (
		rRep   = isa.R19
		rNRep  = isa.R18
		rLvl   = isa.R20
		rNLvl  = isa.R21
		rDim   = isa.R22 // current source dimension
		rY     = isa.R23
		rX     = isa.R24
		rHalf  = isa.R25
		rLogD  = isa.R26 // log2(dim)
		rLogH  = isa.R27 // log2(half)
		rSrc   = isa.R10
		rDst   = isa.R11
		rRow   = isa.R12 // byte stride of source row
		rT     = isa.R5
		rT2    = isa.R6
		rA     = isa.R7
		fA     = isa.F1
		fB     = isa.F2
		fC     = isa.F3
		fD     = isa.F4
		fQ     = isa.F5
		fQuart = isa.F6
		fGain  = isa.F7
		fBias  = isa.F8
	)

	b.Li(rRep, 0)
	b.Li(rNRep, int64(reps))
	b.Fli(fQuart, 0.25)
	b.Fli(fGain, 0.96)
	b.Fli(fBias, 0.01)

	b.Label("rep")
	{
		b.Li(rLvl, 0)
		b.Li(rNLvl, int64(levels))
		b.Li(rDim, int64(dim))
		b.Li(rLogD, 6) // log2(64)
		b.Li(rSrc, img)
		b.Li(rDst, out)
		b.Label("level")
		{
			b.I(isa.SRAI, rHalf, rDim, 1)
			b.I(isa.ADDI, rLogH, rLogD, -1)
			b.I(isa.SLLI, rRow, rDim, 3)
			b.Li(rY, 0)
			b.Label("row")
			{
				b.Li(rX, 0)
				b.Label("col")
				{
					// addr = src + (2y*dim + 2x)*8; dim is a power of two
					// so the scaling is a variable shift, as Mesa's own
					// span code does.
					b.I(isa.SLLI, rT, rY, 1)
					b.R(isa.SLL, rT, rT, rLogD)
					b.I(isa.SLLI, rT2, rX, 1)
					b.R(isa.ADD, rT, rT, rT2)
					b.I(isa.SLLI, rT, rT, 3)
					b.R(isa.ADD, rA, rT, rSrc)
					b.Load(isa.FLW, fA, rA, 0)
					b.Load(isa.FLW, fB, rA, 8)
					b.R(isa.ADD, rA, rA, rRow)
					b.Load(isa.FLW, fC, rA, 0)
					b.Load(isa.FLW, fD, rA, 8)
					b.R(isa.FADD, fQ, fA, fB)
					b.R(isa.FADD, fQ, fQ, fC)
					b.R(isa.FADD, fQ, fQ, fD)
					b.R(isa.FMUL, fQ, fQ, fQuart)
					// Gamma/brightness post-filter keeps the kernel
					// FP-dominated like Mesa's gl_scale_image path.
					b.R(isa.FMUL, fQ, fQ, fGain)
					b.R(isa.FADD, fQ, fQ, fBias)
					// dst[y*half + x]
					b.R(isa.SLL, rT, rY, rLogH)
					b.R(isa.ADD, rT, rT, rX)
					b.I(isa.SLLI, rT, rT, 3)
					b.R(isa.ADD, rT, rT, rDst)
					b.Store(isa.FSW, fQ, rT, 0)
					b.I(isa.ADDI, rX, rX, 1)
					b.Br(isa.BLT, rX, rHalf, "col")
				}
				b.I(isa.ADDI, rY, rY, 1)
				b.Br(isa.BLT, rY, rHalf, "row")
			}
			// Next level reads what this level wrote.
			b.Mov(rSrc, rDst)
			b.R(isa.MUL, rT, rHalf, rHalf)
			b.I(isa.SLLI, rT, rT, 3)
			b.R(isa.ADD, rDst, rDst, rT)
			b.Mov(rDim, rHalf)
			b.Mov(rLogD, rLogH)
			b.I(isa.ADDI, rLvl, rLvl, 1)
			b.Br(isa.BLT, rLvl, rNLvl, "level")
		}
		b.I(isa.ADDI, rRep, rRep, 1)
		b.Br(isa.BLT, rRep, rNRep, "rep")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, isa.R0, rT, 0)
	b.Halt()
	return b.MustBuild()
}

// buildMesaOsdemo: transform an array of 4-component vertices by a 4x4
// matrix, then divide by w — the vertex pipeline inner loop.
func buildMesaOsdemo(scale int, seed uint64) *program.Program {
	verts := 600 * scale
	b := program.NewBuilder("mesaosdemo")
	vin := b.DataFloats(floatSamples(0x05DE^splitmix64(seed), verts*4))
	// A plausible projection-ish matrix (row major).
	mat := b.DataFloats([]float64{
		1.2, 0.0, 0.1, 0.0,
		0.0, 1.6, 0.2, 0.0,
		0.0, 0.0, -1.1, -0.4,
		0.0, 0.0, -1.0, 2.5,
	})
	vout := b.Reserve(verts * 4 * 8)
	chk := b.Reserve(8)

	const (
		rV    = isa.R20
		rNV   = isa.R21
		rRowI = isa.R22
		rIn   = isa.R10
		rMat  = isa.R11
		rOut  = isa.R12
		rT    = isa.R5
		rRowA = isa.R6
		fX    = isa.F1
		fY    = isa.F2
		fZ    = isa.F3
		fW    = isa.F4
		fM0   = isa.F5
		fM1   = isa.F6
		fM2   = isa.F7
		fM3   = isa.F8
		fAcc  = isa.F9
		fT    = isa.F10
		fRW   = isa.F11
		fFour = isa.F12
	)

	b.Li(rV, 0)
	b.Li(rNV, int64(verts))
	b.Li(rIn, vin)
	b.Li(rOut, vout)
	b.Li(rMat, mat)
	b.Fli(fFour, 4)

	b.Label("vert")
	{
		b.Load(isa.FLW, fX, rIn, 0)
		b.Load(isa.FLW, fY, rIn, 8)
		b.Load(isa.FLW, fZ, rIn, 16)
		b.Load(isa.FLW, fW, rIn, 24)
		// Row loop: out[r] = m[r][0]*x + m[r][1]*y + m[r][2]*z + m[r][3]*w
		b.Li(rRowI, 0)
		b.Mov(rRowA, rMat)
		b.Label("rowloop")
		{
			b.Load(isa.FLW, fM0, rRowA, 0)
			b.Load(isa.FLW, fM1, rRowA, 8)
			b.Load(isa.FLW, fM2, rRowA, 16)
			b.Load(isa.FLW, fM3, rRowA, 24)
			b.R(isa.FMUL, fAcc, fM0, fX)
			b.R(isa.FMUL, fT, fM1, fY)
			b.R(isa.FADD, fAcc, fAcc, fT)
			b.R(isa.FMUL, fT, fM2, fZ)
			b.R(isa.FADD, fAcc, fAcc, fT)
			b.R(isa.FMUL, fT, fM3, fW)
			b.R(isa.FADD, fAcc, fAcc, fT)
			b.I(isa.SLLI, rT, rRowI, 3)
			b.R(isa.ADD, rT, rT, rOut)
			b.Store(isa.FSW, fAcc, rT, 0)
			b.I(isa.ADDI, rRowA, rRowA, 32)
			b.I(isa.ADDI, rRowI, rRowI, 1)
			b.Li(rT, 4)
			b.Br(isa.BLT, rRowI, rT, "rowloop")
		}
		// Perspective divide: one reciprocal, then multiplies — exactly
		// how Mesa's vertex stage amortizes the slow FDIV.
		b.Load(isa.FLW, fRW, rOut, 24)
		b.Fli(fT, 1.0)
		b.R(isa.FDIV, fRW, fT, fRW)
		b.Load(isa.FLW, fT, rOut, 0)
		b.R(isa.FMUL, fT, fT, fRW)
		b.Store(isa.FSW, fT, rOut, 0)
		b.Load(isa.FLW, fT, rOut, 8)
		b.R(isa.FMUL, fT, fT, fRW)
		b.Store(isa.FSW, fT, rOut, 8)
		b.I(isa.ADDI, rIn, rIn, 32)
		b.I(isa.ADDI, rOut, rOut, 32)
		b.I(isa.ADDI, rV, rV, 1)
		b.Br(isa.BLT, rV, rNV, "vert")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, isa.R0, rT, 0)
	b.Halt()
	return b.MustBuild()
}

// buildMesaTexgen: per vertex compute a sphere-map coordinate: dot
// products plus a reciprocal square root via Newton iterations.
func buildMesaTexgen(scale int, seed uint64) *program.Program {
	verts := 500 * scale
	b := program.NewBuilder("mesatexgen")
	norm := b.DataFloats(floatSamples(0x7E46E^splitmix64(seed), verts*3))
	tex := b.Reserve(verts * 2 * 8)
	chk := b.Reserve(8)

	const (
		rV    = isa.R20
		rNV   = isa.R21
		rIt   = isa.R22
		rIn   = isa.R10
		rOut  = isa.R11
		rT    = isa.R5
		fNX   = isa.F1
		fNY   = isa.F2
		fNZ   = isa.F3
		fDot  = isa.F4
		fT    = isa.F5
		fG    = isa.F6 // guess for rsqrt
		fHalf = isa.F7
		f3    = isa.F8
		fEps  = isa.F9
	)

	b.Li(rV, 0)
	b.Li(rNV, int64(verts))
	b.Li(rIn, norm)
	b.Li(rOut, tex)
	b.Fli(fHalf, 0.5)
	b.Fli(f3, 3.0)
	b.Fli(fEps, 0.001)

	b.Label("vert")
	{
		b.Load(isa.FLW, fNX, rIn, 0)
		b.Load(isa.FLW, fNY, rIn, 8)
		b.Load(isa.FLW, fNZ, rIn, 16)
		// dot = nx^2 + ny^2 + nz^2 + eps
		b.R(isa.FMUL, fDot, fNX, fNX)
		b.R(isa.FMUL, fT, fNY, fNY)
		b.R(isa.FADD, fDot, fDot, fT)
		b.R(isa.FMUL, fT, fNZ, fNZ)
		b.R(isa.FADD, fDot, fDot, fT)
		b.R(isa.FADD, fDot, fDot, fEps)
		// rsqrt via 3 Newton iterations from guess 1/(0.5+0.5*dot).
		b.R(isa.FMUL, fG, fHalf, fDot)
		b.R(isa.FADD, fG, fG, fHalf)
		b.Fli(fT, 1.0)
		b.R(isa.FDIV, fG, fT, fG)
		b.Li(rIt, 0)
		b.Label("newton")
		{
			// g = 0.5*g*(3 - dot*g*g)
			b.R(isa.FMUL, fT, fG, fG)
			b.R(isa.FMUL, fT, fT, fDot)
			b.R(isa.FSUB, fT, f3, fT)
			b.R(isa.FMUL, fG, fG, fT)
			b.R(isa.FMUL, fG, fG, fHalf)
			b.I(isa.ADDI, rIt, rIt, 1)
			b.Li(rT, 3)
			b.Br(isa.BLT, rIt, rT, "newton")
		}
		// s = 0.5 + 0.5*nx*g ; t = 0.5 + 0.5*ny*g
		b.R(isa.FMUL, fT, fNX, fG)
		b.R(isa.FMUL, fT, fT, fHalf)
		b.R(isa.FADD, fT, fT, fHalf)
		b.Store(isa.FSW, fT, rOut, 0)
		b.R(isa.FMUL, fT, fNY, fG)
		b.R(isa.FMUL, fT, fT, fHalf)
		b.R(isa.FADD, fT, fT, fHalf)
		b.Store(isa.FSW, fT, rOut, 8)
		b.I(isa.ADDI, rIn, rIn, 24)
		b.I(isa.ADDI, rOut, rOut, 16)
		b.I(isa.ADDI, rV, rV, 1)
		b.Br(isa.BLT, rV, rNV, "vert")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, isa.R0, rT, 0)
	b.Halt()
	return b.MustBuild()
}
