package workload

import (
	"clustervp/internal/isa"
	"clustervp/internal/program"
)

func init() {
	register(Kernel{
		Name:        "mpeg2enc",
		Category:    "video",
		Description: "MPEG-2 encode signature: full-search motion-estimation SAD with early-exit branches",
		Build:       buildMpeg2Enc,
	})
}

// buildMpeg2Enc: for each macroblock, scan candidate displacements in a
// small search window; per candidate accumulate sum of absolute
// differences over a 16x1 strip with an early exit when the partial SAD
// exceeds the best so far. Branch-heavy, abs-value data dependence, the
// dominant loop of every video encoder.
func buildMpeg2Enc(scale int, seed uint64) *program.Program {
	blocks := 24 * scale
	window := 8   // candidate displacements per block
	strip := 16   // pixels compared per candidate row
	rows := 4     // strip rows per candidate
	width := 1024 // bytes per reference row

	b := program.NewBuilder("mpeg2enc")
	ref := make([]int64, (blocks*strip+window+rows*width/8)+2048)
	cur := make([]int64, blocks*strip*rows+2048)
	l := lcg(0x3E62)
	for i := range ref {
		ref[i] = int64(l.next() % 256)
	}
	// The current frame resembles the reference shifted by 3 with noise,
	// so one candidate is clearly best (realistic ME behaviour).
	for i := range cur {
		src := i + 3
		if src < len(ref) {
			cur[i] = ref[src] + int64(l.next()%5) - 2
		} else {
			cur[i] = int64(l.next() % 256)
		}
	}
	refA := b.DataWords(ref)
	curA := b.DataWords(cur)
	motion := b.Reserve(blocks * 8)
	chk := b.Reserve(8)

	const (
		rBlk  = isa.R20
		rNBlk = isa.R21
		rCand = isa.R22
		rNCnd = isa.R23
		rI    = isa.R24
		rNI   = isa.R25
		rRef  = isa.R10
		rCur  = isa.R11
		rMot  = isa.R12
		rBest = isa.R1
		rSad  = isa.R2
		rA    = isa.R3
		rB    = isa.R4
		rT    = isa.R5
		rBMV  = isa.R6
		rRA   = isa.R7
		rCA   = isa.R8
		rChk  = isa.R9
	)

	b.Li(rBlk, 0)
	b.Li(rNBlk, int64(blocks))
	b.Li(rNCnd, int64(window))
	b.Li(rNI, int64(strip*rows))
	b.Li(rRef, refA)
	b.Li(rCur, curA)
	b.Li(rMot, motion)
	b.Li(rChk, 0)

	b.Label("block")
	{
		b.Li(rBest, 1<<30)
		b.Li(rBMV, 0)
		b.Li(rCand, 0)
		b.Label("cand")
		{
			b.Li(rSad, 0)
			b.Li(rI, 0)
			// rRA = ref + (block*strip + cand)*8 ; rCA = cur + block*strip*rows*8
			b.R(isa.MUL, rT, rBlk, rNI)
			b.I(isa.SLLI, rT, rT, 3)
			b.R(isa.ADD, rCA, rT, rCur)
			b.Li(rT, int64(strip))
			b.R(isa.MUL, rT, rBlk, rT)
			b.R(isa.ADD, rT, rT, rCand)
			b.I(isa.SLLI, rT, rT, 3)
			b.R(isa.ADD, rRA, rT, rRef)
			b.Label("pix")
			{
				// Branch-free absolute difference, as real SAD kernels
				// compute it: mask = d>>63; |d| = (d^mask)-mask.
				b.Load(isa.LW, rA, rCA, 0)
				b.Load(isa.LW, rB, rRA, 0)
				b.R(isa.SUB, rA, rA, rB)
				b.I(isa.SRAI, rB, rA, 63)
				b.R(isa.XOR, rA, rA, rB)
				b.R(isa.SUB, rA, rA, rB)
				b.R(isa.ADD, rSad, rSad, rA)
				b.I(isa.ADDI, rCA, rCA, 8)
				b.I(isa.ADDI, rRA, rRA, 8)
				b.I(isa.ADDI, rI, rI, 1)
				// Early exit once per 16-pixel row, not per pixel.
				b.I(isa.ANDI, rB, rI, 15)
				b.Br(isa.BNE, rB, isa.R0, "pix")
				b.Br(isa.BGE, rSad, rBest, "candnext")
				b.Br(isa.BLT, rI, rNI, "pix")
			}
			// New best.
			b.Mov(rBest, rSad)
			b.Mov(rBMV, rCand)
			b.Label("candnext")
			b.I(isa.ADDI, rCand, rCand, 1)
			b.Br(isa.BLT, rCand, rNCnd, "cand")
		}
		b.I(isa.SLLI, rT, rBlk, 3)
		b.R(isa.ADD, rT, rT, rMot)
		b.Store(isa.SW, rBMV, rT, 0)
		b.I(isa.SLLI, rChk, rChk, 1)
		b.R(isa.XOR, rChk, rChk, rBMV)
		b.R(isa.ADD, rChk, rChk, rBest)
		b.I(isa.ADDI, rBlk, rBlk, 1)
		b.Br(isa.BLT, rBlk, rNBlk, "block")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Halt()
	return b.MustBuild()
}
