package trace

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
