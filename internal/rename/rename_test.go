package rename

import (
	"testing"
	"testing/quick"

	"clustervp/internal/isa"
)

// uniform sizes n identical per-cluster register files, the homogeneous
// shape most tests use.
func uniform(n, regs int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = regs
	}
	return out
}

func TestInitialStateMappedRoundRobin(t *testing.T) {
	tb := New[int](uniform(4, 56))
	for r := 0; r < isa.NumRegs; r++ {
		reg := isa.RegID(r)
		want := r % 4
		if tb.Home(reg) != want {
			t.Errorf("home(%v) = %d, want %d", reg, tb.Home(reg), want)
		}
		if tb.MappedMask(reg) != 1<<uint(want) {
			t.Errorf("mask(%v) = %b", reg, tb.MappedMask(reg))
		}
		m := tb.Lookup(reg, want)
		if !m.Valid {
			t.Errorf("initial mapping of %v must be valid", reg)
		}
	}
	// 64 regs over 4 clusters = 16 initial allocations per cluster.
	for c := 0; c < 4; c++ {
		if got := tb.FreeRegs(c); got != 56-16 {
			t.Errorf("free regs cluster %d = %d, want 40", c, got)
		}
	}
}

func TestRenameFigure1Sequence(t *testing.T) {
	// Reproduce the paper's Figure 1: I1 writes Rx in cluster n; I2 reads
	// Rx from cluster m (copy); I3 rewrites Rx, freeing the generation.
	tb := New[string](uniform(2, 80))
	rx := isa.R5
	n, m := 0, 1

	// I1: Rx <- ... in cluster n.
	free1, ok := tb.Rename(rx, n, "I1")
	if !ok {
		t.Fatal("rename I1 failed")
	}
	if tb.MappedMask(rx) != 1<<uint(n) {
		t.Fatalf("after I1, mask = %b", tb.MappedMask(rx))
	}
	// The initial mapping of R5 (home 5%2=1) is freed when I1 commits.
	if free1 != 1<<1 {
		t.Fatalf("clusters to free after I1 = %b, want cluster 1 only", free1)
	}

	// I2 in cluster m: field m invalid -> copy.
	if tb.Lookup(rx, m).Valid {
		t.Fatal("field m must be invalid before the copy")
	}
	if !tb.AddCopy(rx, m, "copy") {
		t.Fatal("copy allocation failed")
	}
	if got := tb.Lookup(rx, m); !got.Valid || got.Provider != "copy" {
		t.Fatalf("copy mapping = %+v", got)
	}
	if tb.MappedMask(rx) != 0b11 {
		t.Fatalf("after copy, mask = %b", tb.MappedMask(rx))
	}

	// I3: Rx <- ... in cluster m. Previous generation (I1's reg in n,
	// copy's reg in m) freed at I3's commit.
	free3, ok := tb.Rename(rx, m, "I3")
	if !ok {
		t.Fatal("rename I3 failed")
	}
	if free3 != 1<<uint(n)|1<<uint(m) {
		t.Fatalf("clusters to free after I3 = %b, want one register in each", free3)
	}
	if tb.MappedMask(rx) != 1<<uint(m) {
		t.Fatalf("after I3, mask = %b", tb.MappedMask(rx))
	}
	if tb.Home(rx) != m {
		t.Fatalf("home after I3 = %d", tb.Home(rx))
	}

	// Commit I3: registers return.
	before0, before1 := tb.FreeRegs(0), tb.FreeRegs(1)
	tb.ReleaseAtCommit(free3)
	if tb.FreeRegs(0) != before0+1 || tb.FreeRegs(1) != before1+1 {
		t.Error("release must return one register per cluster")
	}
}

func TestRenameFailsWhenExhausted(t *testing.T) {
	tb := New[int](uniform(2, 40)) // 32 consumed by initial state of each cluster's share
	// Cluster 0 starts with 40-32 = 8 free.
	free := tb.FreeRegs(0)
	for i := 0; i < free; i++ {
		if _, ok := tb.Rename(isa.R1, 0, i); !ok {
			t.Fatalf("rename %d should succeed", i)
		}
	}
	if _, ok := tb.Rename(isa.R1, 0, 99); ok {
		t.Fatal("rename must fail with empty free list")
	}
	// Other cluster unaffected.
	if _, ok := tb.Rename(isa.R2, 1, 0); !ok {
		t.Error("cluster 1 must still have registers")
	}
}

func TestR0NeverRenamed(t *testing.T) {
	tb := New[int](uniform(2, 80))
	before := tb.FreeRegs(0)
	freeAtCommit, ok := tb.Rename(isa.R0, 0, 7)
	if !ok || freeAtCommit != 0 {
		t.Error("R0 rename must be a ready no-op")
	}
	if tb.FreeRegs(0) != before {
		t.Error("R0 rename must not allocate")
	}
}

func TestAddCopyPanicsOnDoubleMap(t *testing.T) {
	tb := New[int](uniform(2, 80))
	tb.Rename(isa.R3, 0, 1)
	tb.AddCopy(isa.R3, 1, 2)
	defer func() {
		if recover() == nil {
			t.Error("AddCopy on a valid field must panic")
		}
	}()
	tb.AddCopy(isa.R3, 1, 3)
}

func TestSetProvider(t *testing.T) {
	tb := New[int](uniform(2, 80))
	tb.Rename(isa.R3, 0, 42)
	tb.SetProvider(isa.R3, 0, 0)
	if got := tb.Lookup(isa.R3, 0); !got.Valid || got.Provider != 0 {
		t.Errorf("mapping after SetProvider = %+v", got)
	}
	// Setting on an invalid field is a no-op.
	tb.SetProvider(isa.R3, 1, 9)
	if tb.Lookup(isa.R3, 1).Valid {
		t.Error("invalid field must stay invalid")
	}
}

func TestFreeListOverflowPanics(t *testing.T) {
	f := NewFreeList(2)
	f.Alloc()
	f.Release(1)
	defer func() {
		if recover() == nil {
			t.Error("over-release must panic")
		}
	}()
	f.Release(5)
}

// Property: the total of free registers plus live mappings is conserved
// across arbitrary rename/copy/commit sequences.
func TestRegisterConservationProperty(t *testing.T) {
	type op struct {
		Reg    uint8
		Clust  uint8
		IsCopy bool
	}
	f := func(ops []op) bool {
		const per = 56
		tb := New[int](uniform(4, per))
		var pendingFrees []uint32
		for _, o := range ops {
			r := isa.RegID(o.Reg % isa.NumRegs)
			c := int(o.Clust % 4)
			if o.IsCopy {
				if r != isa.R0 && !tb.Lookup(r, c).Valid {
					tb.AddCopy(r, c, 0)
				}
			} else {
				if fr, ok := tb.Rename(r, c, 0); ok && fr != 0 {
					pendingFrees = append(pendingFrees, fr)
				}
			}
			// Occasionally commit the oldest writer.
			if len(pendingFrees) > 8 {
				tb.ReleaseAtCommit(pendingFrees[0])
				pendingFrees = pendingFrees[1:]
			}
		}
		// Drain.
		for _, fr := range pendingFrees {
			tb.ReleaseAtCommit(fr)
		}
		// Conservation: free + live mappings == total, per cluster.
		for c := 0; c < 4; c++ {
			live := 0
			for r := 0; r < isa.NumRegs; r++ {
				if tb.Lookup(isa.RegID(r), c).Valid {
					live++
				}
			}
			if tb.FreeRegs(c)+live != per {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
