// Package rename implements the paper's register-renaming substrate
// (§2.1, Figure 1): a map table with N fields per logical register — one
// per cluster — of which each holds either an invalid mark or a mapping
// to a physical register in that cluster, plus per-cluster free lists.
//
// A new writer allocates a register in its cluster, validates that field
// and invalidates the others; consumers dispatched to a cluster without a
// valid mapping trigger a copy, which allocates a register in the
// consumer's cluster and validates that field for reuse by later
// consumers. All registers belonging to a logical register's previous
// mapping generation are freed when the next writer of that register
// commits.
//
// The package is generic over the provider token P that the timing core
// attaches to each mapping (the ROB entry producing the value in that
// cluster); rename itself only manages validity and free-list accounting.
package rename

import (
	"fmt"
	"math/bits"

	"clustervp/internal/isa"
)

// Mapping is one map-table field: a provider token and a valid bit. The
// zero Provider with Valid=true means "value architecturally ready in the
// register file".
type Mapping[P any] struct {
	Valid    bool
	Provider P
}

// FreeList tracks the free physical registers of one cluster by count
// (the simulator never needs concrete register numbers, only occupancy).
type FreeList struct {
	free  int
	total int
}

// NewFreeList builds a free list with n registers.
func NewFreeList(n int) *FreeList { return &FreeList{free: n, total: n} }

// Free returns the number of free registers.
func (f *FreeList) Free() int { return f.free }

// Alloc takes one register; it returns false when none are free.
func (f *FreeList) Alloc() bool {
	if f.free == 0 {
		return false
	}
	f.free--
	return true
}

// Release returns n registers to the list. It panics if the release
// would exceed the total — that is always an accounting bug.
func (f *FreeList) Release(n int) {
	f.free += n
	if f.free > f.total {
		panic(fmt.Sprintf("rename: free list overflow: %d > %d", f.free, f.total))
	}
}

// Table is the map table: NumRegs logical registers × N cluster fields.
// The fields are stored flat (row r at fields[r*clusters:]) with a
// per-register validity bitmask maintained alongside, so the hot
// dispatch-path queries (MappedMask, the Rename invalidation sweep) are
// mask reads and popcount-style walks instead of per-cluster scans.
type Table[P any] struct {
	clusters int
	fields   []Mapping[P] // flattened [logical][cluster]
	regs     []regState
	free     []FreeList
}

// regState is the per-register summary dispatch reads beside the
// fields: one load yields both.
type regState struct {
	mask uint32 // bitmask of valid fields
	home int32  // cluster of the current writer
}

// New builds a map table with one field column and one free list per
// cluster; physRegs[c] sizes cluster c's register file (clusters may
// differ on heterogeneous machines). Initially every logical register is
// architecturally ready, mapped in its home cluster reg%clusters (one
// physical register each, consumed from that cluster's free list), which
// spreads the initial state like the paper's dynamic scheme would settle.
func New[P any](physRegs []int) *Table[P] {
	clusters := len(physRegs)
	if clusters < 1 {
		panic("rename: clusters must be >= 1")
	}
	t := &Table[P]{
		clusters: clusters,
		fields:   make([]Mapping[P], isa.NumRegs*clusters),
		regs:     make([]regState, isa.NumRegs),
		free:     make([]FreeList, clusters),
	}
	t.Reset(physRegs)
	return t
}

// Reset rewinds the table to its freshly constructed state for a new
// run, reusing the fields, per-register and free-list arrays.
// physRegs must have the same cluster count the table was built with
// (a shape change requires a new table); Reset panics otherwise, as New
// would.
func (t *Table[P]) Reset(physRegs []int) {
	if len(physRegs) != t.clusters {
		panic(fmt.Sprintf("rename: Reset with %d clusters on a %d-cluster table", len(physRegs), t.clusters))
	}
	for i := range t.fields {
		t.fields[i] = Mapping[P]{}
	}
	for c := range t.free {
		t.free[c] = FreeList{free: physRegs[c], total: physRegs[c]}
	}
	for r := 0; r < isa.NumRegs; r++ {
		c := r % t.clusters
		if !t.free[c].Alloc() {
			panic("rename: register file too small for initial architectural state")
		}
		t.fields[r*t.clusters+c] = Mapping[P]{Valid: true} // zero provider = ready
		t.regs[r] = regState{mask: 1 << uint(c), home: int32(c)}
	}
}

// Clusters returns N.
func (t *Table[P]) Clusters() int { return t.clusters }

// FreeRegs returns the free-register count of cluster c.
func (t *Table[P]) FreeRegs(c int) int { return t.free[c].Free() }

// Lookup returns the mapping of logical register r in cluster c.
func (t *Table[P]) Lookup(r isa.RegID, c int) Mapping[P] {
	return t.fields[int(r)*t.clusters+c]
}

// MappedMask returns the bitmask of clusters where r has a valid mapping.
func (t *Table[P]) MappedMask(r isa.RegID) uint32 { return t.regs[r].mask }

// Home returns the cluster of r's current writer.
func (t *Table[P]) Home(r isa.RegID) int { return int(t.regs[r].home) }

// CanAlloc reports whether cluster c has at least n free registers.
func (t *Table[P]) CanAlloc(c, n int) bool { return t.free[c].Free() >= n }

// Rename installs a new writer of r in cluster c with provider p. It
// allocates one physical register in c, invalidates every other field,
// and returns the clusters of the old mapping generation as a mask: a
// logical register holds at most one mapping per cluster, so each set
// bit is one physical register to free when this writer commits. ok is
// false — and nothing changes — when c has no free register.
func (t *Table[P]) Rename(r isa.RegID, c int, p P) (freeAtCommit uint32, ok bool) {
	if r == isa.R0 {
		// R0 is hardwired; writers are dropped at decode.
		return 0, true
	}
	if !t.free[c].Alloc() {
		return 0, false
	}
	freeAtCommit = t.regs[r].mask
	row := t.fields[int(r)*t.clusters : int(r+1)*t.clusters]
	for m := freeAtCommit; m != 0; m &= m - 1 {
		row[bits.TrailingZeros32(m)] = Mapping[P]{}
	}
	row[c] = Mapping[P]{Valid: true, Provider: p}
	t.regs[r] = regState{mask: 1 << uint(c), home: int32(c)}
	return freeAtCommit, true
}

// AddCopy validates field c of r with provider p (a copy instruction
// materializing r's value in cluster c), allocating one register there.
// ok is false when no register is free. The copy's register joins the
// current mapping generation and is freed by the next writer's commit.
func (t *Table[P]) AddCopy(r isa.RegID, c int, p P) bool {
	i := int(r)*t.clusters + c
	if t.fields[i].Valid {
		panic(fmt.Sprintf("rename: AddCopy(%v, %d): already mapped", r, c))
	}
	if !t.free[c].Alloc() {
		return false
	}
	t.fields[i] = Mapping[P]{Valid: true, Provider: p}
	t.regs[r].mask |= 1 << uint(c)
	return true
}

// SetProvider replaces the provider token of an existing valid mapping
// (used when a committed provider's token must be cleared to "ready").
func (t *Table[P]) SetProvider(r isa.RegID, c int, p P) {
	i := int(r)*t.clusters + c
	if !t.fields[i].Valid {
		return
	}
	t.fields[i].Provider = p
}

// ReleaseAtCommit returns the registers of a dead mapping generation to
// their free lists: one in each cluster of mask, the mask Rename
// returned.
func (t *Table[P]) ReleaseAtCommit(mask uint32) {
	for ; mask != 0; mask &= mask - 1 {
		t.free[bits.TrailingZeros32(mask)].Release(1)
	}
}
