package trace

// Column is one column of a MemTrace as the layout test sees it.
type Column struct {
	Name                string
	Len, Cap, ElemBytes int
}

// Columns returns t's record columns.
func Columns(t *MemTrace) []Column {
	return []Column{
		{"pc", len(t.pc), cap(t.pc), 4},
		{"taken", len(t.taken), cap(t.taken), 8},
		{"vals", len(t.vals), cap(t.vals), 8},
	}
}

// FixedBytes is the arena charge for t's name and static code.
func FixedBytes(t *MemTrace) int64 { return fixedBytes(t.name, t.code) }
