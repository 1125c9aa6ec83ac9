package workload

import (
	"clustervp/internal/isa"
	"clustervp/internal/program"
)

func init() {
	register(Kernel{
		Name:        "pgpenc",
		Category:    "encryption",
		Description: "PGP encrypt signature: modular exponentiation by square-and-multiply (serial MUL/REM chain)",
		Build:       buildPgpEnc,
	})
	register(Kernel{
		Name:        "pgpdec",
		Category:    "encryption",
		Description: "PGP decrypt signature: modular exponentiation plus ASCII-armor byte scanning",
		Build:       buildPgpDec,
	})
}

// emitModExp emits code computing result = base^exp mod m over an array
// of message words, one modexp per word. Register conventions are local
// to the emitted fragment.
func emitModExp(b *program.Builder, prefix string, nWords int, msgAddr, outAddr int64, exp, mod int64) {
	const (
		rI    = isa.R20
		rN    = isa.R21
		rMsg  = isa.R10
		rOut  = isa.R11
		rBase = isa.R1
		rExp  = isa.R2
		rRes  = isa.R3
		rMod  = isa.R4
		rT    = isa.R5
		rBit  = isa.R6
		rChk  = isa.R9
	)
	b.Li(rI, 0)
	b.Li(rN, int64(nWords))
	b.Li(rMsg, msgAddr)
	b.Li(rOut, outAddr)
	b.Li(rMod, mod)

	b.Label(prefix + "word")
	{
		b.I(isa.SLLI, rT, rI, 3)
		b.R(isa.ADD, rT, rT, rMsg)
		b.Load(isa.LW, rBase, rT, 0)
		b.R(isa.REM, rBase, rBase, rMod)
		b.Li(rExp, exp)
		b.Li(rRes, 1)
		b.Label(prefix + "bit")
		{
			b.I(isa.ANDI, rBit, rExp, 1)
			b.Br(isa.BEQ, rBit, isa.R0, prefix+"nomul")
			b.R(isa.MUL, rRes, rRes, rBase)
			b.R(isa.REM, rRes, rRes, rMod)
			b.Label(prefix + "nomul")
			b.R(isa.MUL, rBase, rBase, rBase)
			b.R(isa.REM, rBase, rBase, rMod)
			b.I(isa.SRLI, rExp, rExp, 1)
			b.Br(isa.BNE, rExp, isa.R0, prefix+"bit")
		}
		b.I(isa.SLLI, rT, rI, 3)
		b.R(isa.ADD, rT, rT, rOut)
		b.Store(isa.SW, rRes, rT, 0)
		b.R(isa.XOR, rChk, rChk, rRes)
		b.I(isa.ADDI, rI, rI, 1)
		b.Br(isa.BLT, rI, rN, prefix+"word")
	}
}

// buildPgpEnc: modexp with a 16-bit exponent over the message words.
// Long serial MUL→REM chains exercise the non-pipelined divide units and
// produce poorly predictable intermediate values, like real RSA.
func buildPgpEnc(scale int, seed uint64) *program.Program {
	n := 180 * scale
	b := program.NewBuilder("pgpenc")
	msgVals := intSamples(0x9690^splitmix64(seed), n, 1<<30)
	for i := range msgVals {
		if msgVals[i] < 0 {
			msgVals[i] = -msgVals[i]
		}
	}
	msg := b.DataWords(msgVals)
	out := b.Reserve(n * 8)
	chk := b.Reserve(8)

	b.Li(isa.R9, 0)
	emitModExp(b, "e", n, msg, out, 0xC20F, 1_000_003)
	b.Li(isa.R5, chk)
	b.Store(isa.SW, isa.R9, isa.R5, 0)
	b.Halt()
	return b.MustBuild()
}

// buildPgpDec: a shorter modexp pass plus an ASCII-armor scan: walk a
// byte buffer classifying characters (alnum vs padding vs newline) with
// a branch tree and accumulating a radix-64 decode.
func buildPgpDec(scale int, seed uint64) *program.Program {
	n := 90 * scale
	textLen := 4000 * scale
	b := program.NewBuilder("pgpdec")
	msgVals := intSamples(0x9691^splitmix64(seed), n, 1<<30)
	for i := range msgVals {
		if msgVals[i] < 0 {
			msgVals[i] = -msgVals[i]
		}
	}
	msg := b.DataWords(msgVals)
	out := b.Reserve(n * 8)
	// ASCII-armor-like text: base64 alphabet with newlines and padding.
	text := make([]byte, textLen)
	l := lcg(0xA4A)
	const alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for i := range text {
		switch {
		case i%77 == 76:
			text[i] = '\n'
		case l.next()%97 == 0:
			text[i] = '='
		default:
			text[i] = alpha[l.next()%64]
		}
	}
	textA := b.DataBytes(text)
	chk := b.Reserve(8)

	b.Li(isa.R9, 0)
	emitModExp(b, "d", n, msg, out, 0x89, 999_983)

	// Armor scan.
	const (
		rI    = isa.R20
		rN    = isa.R21
		rText = isa.R10
		rC    = isa.R1
		rAcc  = isa.R2
		rBits = isa.R3
		rT    = isa.R5
		rChk  = isa.R9
		rLo   = isa.R6
	)
	b.Li(rI, 0)
	b.Li(rN, int64(textLen))
	b.Li(rText, textA)
	b.Li(rAcc, 0)
	b.Li(rBits, 0)

	b.Label("scan")
	{
		b.R(isa.ADD, rT, rText, rI)
		b.Load(isa.LB, rC, rT, 0)
		// newline: skip
		b.Li(rLo, '\n')
		b.Br(isa.BEQ, rC, rLo, "next")
		// padding: flush accumulator
		b.Li(rLo, '=')
		b.Br(isa.BNE, rC, rLo, "decode")
		b.R(isa.XOR, rChk, rChk, rAcc)
		b.Li(rAcc, 0)
		b.Li(rBits, 0)
		b.Jmp("next")
		b.Label("decode")
		// Classify: A-Z -> c-65, a-z -> c-71, 0-9 -> c+4, else 62/63.
		b.Li(rLo, 'Z'+1)
		b.Br(isa.BGE, rC, rLo, "lower")
		b.Li(rLo, 'A')
		b.Br(isa.BLT, rC, rLo, "digitish")
		b.I(isa.ADDI, rC, rC, -65)
		b.Jmp("gotval")
		b.Label("lower")
		b.Li(rLo, 'a')
		b.Br(isa.BLT, rC, rLo, "gotval62")
		b.I(isa.ADDI, rC, rC, -71)
		b.Jmp("gotval")
		b.Label("digitish")
		b.Li(rLo, '0')
		b.Br(isa.BLT, rC, rLo, "gotval63")
		b.I(isa.ADDI, rC, rC, 4)
		b.Jmp("gotval")
		b.Label("gotval62")
		b.Li(rC, 62)
		b.Jmp("gotval")
		b.Label("gotval63")
		b.Li(rC, 63)
		b.Label("gotval")
		b.I(isa.SLLI, rAcc, rAcc, 6)
		b.R(isa.OR, rAcc, rAcc, rC)
		b.I(isa.ADDI, rBits, rBits, 6)
		b.Li(rLo, 24)
		b.Br(isa.BLT, rBits, rLo, "next")
		b.R(isa.XOR, rChk, rChk, rAcc)
		b.Li(rAcc, 0)
		b.Li(rBits, 0)
		b.Label("next")
		b.I(isa.ADDI, rI, rI, 1)
		b.Br(isa.BLT, rI, rN, "scan")
	}
	b.Li(rT, chk)
	b.Store(isa.SW, rChk, rT, 0)
	b.Halt()
	return b.MustBuild()
}
