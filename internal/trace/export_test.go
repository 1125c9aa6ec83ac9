package trace

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"clustervp/internal/isa"
)

// MaxRecords is the most records a trace may hold.
const MaxRecords = maxRecords

// Column is one column of a MemTrace as the layout test sees it.
type Column struct {
	Name                string
	Len, Cap, ElemBytes int
}

// Columns returns t's record columns.
func Columns(t *MemTrace) []Column {
	return []Column{{"loads", len(t.col), cap(t.col), 1}}
}

// FixedBytes is the arena charge for t's name and static code.
func FixedBytes(t *MemTrace) int64 { return fixedBytes(t.name, t.code) }

// Block is one block of a hand-made container: its record count and
// its load column.
type Block struct {
	Records uint64
	Column  []byte
}

// Container encodes a container named "test" from its parts, following
// the layout in format.go but not the Writer, so that tests can make
// the files a Writer never would.
func Container(code []isa.Inst, entry uint64, blocks []Block, total uint64) []byte {
	zz := func(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
	checked := func(out, payload []byte) []byte {
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	hdr := append(binary.AppendUvarint(nil, 4), "test"...)
	hdr = binary.AppendUvarint(hdr, uint64(len(code)))
	for _, in := range code {
		hdr = binary.AppendUvarint(hdr, uint64(in.Op))
		hdr = append(hdr, byte(in.Rd), byte(in.Ra), byte(in.Rb))
		hdr = binary.AppendUvarint(hdr, zz(in.Imm))
		hdr = binary.AppendUvarint(hdr, math.Float64bits(in.FImm))
		hdr = binary.AppendUvarint(hdr, zz(int64(in.Target)))
	}
	out := checked([]byte{'C', 'V', 'T', 'R', 2}, binary.AppendUvarint(hdr, entry))
	for _, b := range blocks {
		out = checked(binary.AppendUvarint(out, b.Records), b.Column)
	}
	end := binary.AppendUvarint(nil, total)
	out = append(append(out, 0), end...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(end))
}

// FloodUpload is a 32,802-byte container claiming maxRecords records: a
// one-instruction loop with no loads, in 4,096 blocks of 65,536 records
// whose framing takes 8 bytes each. Re-executing it would take seconds
// of CPU, so the Reader must refuse its first block.
func FloodUpload() []byte {
	blocks := make([]Block, maxRecords>>16)
	for i := range blocks {
		blocks[i].Records = 1 << 16
	}
	return Container([]isa.Inst{{Op: isa.J}}, 0, blocks, maxRecords)
}
