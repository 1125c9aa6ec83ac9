package trace

// Source is a stream of dynamic instructions: the contract between the
// timing simulator in internal/core and whatever produces the trace. The
// in-process functional Executor and the .cvt file Reader both satisfy
// it, so a simulation neither knows nor cares whether its instruction
// stream is synthesized on the fly or replayed from disk.
//
// Next fills d with the next record and reports whether one was
// available; after Next returns false, Err distinguishes a cleanly
// drained stream (nil) from a mid-stream failure.
type Source interface {
	Next(d *DynInst) bool
	Err() error
}

var (
	_ Source = (*Executor)(nil)
	_ Source = (*Reader)(nil)
)
