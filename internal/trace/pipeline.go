package trace

import "sync"

// Pipelined overlaps .cvt decoding with simulation for traces the arena
// does not hold: a single decode-ahead goroutine drains the underlying
// Reader batch by batch into a bounded ring of recycled record buffers
// while the simulation consumes the previous batch. CRC checks and
// re-execution thus run concurrently with the timing loop, and
// the fixed batch pool means steady-state operation allocates nothing.
//
// Record order and content are exactly the Reader's — batching only
// changes when decoding happens, never what is decoded — so replay is
// byte-identical to the synchronous path.

const (
	// pipeBatch is the number of records per decode-ahead batch.
	pipeBatch = 512
	// pipeDepth is the total number of batches in flight; the consumer
	// holds at most one, so the decoder can run up to pipeDepth-1
	// batches ahead.
	pipeDepth = 4
)

// pbatch is one decode-ahead unit. last marks the batch that exhausted
// the Reader; err carries the Reader's final error alongside it.
type pbatch struct {
	n    int
	last bool
	err  error
	recs [pipeBatch]DynInst
}

// Pipelined is a Source adapter running a Reader's decode one stage
// ahead of the consumer. Next and Err must be called from a single
// goroutine (the Source contract); Close may be called at any point to
// stop the decoder, including before the stream drains.
type Pipelined struct {
	r    *Reader
	out  chan *pbatch
	free chan *pbatch
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	cur  *pbatch
	idx  int
	done bool
	err  error
}

// NewPipelined starts the decode-ahead stage over r. The caller must
// Close the Pipelined (before closing r's underlying file, if any).
func NewPipelined(r *Reader) *Pipelined {
	p := &Pipelined{
		r:    r,
		out:  make(chan *pbatch, pipeDepth),
		free: make(chan *pbatch, pipeDepth),
		stop: make(chan struct{}),
	}
	for i := 0; i < pipeDepth; i++ {
		p.free <- &pbatch{}
	}
	p.wg.Add(1)
	go p.fill()
	return p
}

// fill is the decode-ahead goroutine: it recycles batches from free,
// fills them from the Reader, and hands them to the consumer via out.
func (p *Pipelined) fill() {
	defer p.wg.Done()
	for {
		var b *pbatch
		select {
		case b = <-p.free:
		case <-p.stop:
			return
		}
		b.n, b.last, b.err = 0, false, nil
		for b.n < pipeBatch {
			if !p.r.Next(&b.recs[b.n]) {
				b.last = true
				b.err = p.r.Err()
				break
			}
			b.n++
		}
		select {
		case p.out <- b:
		case <-p.stop:
			return
		}
		if b.last {
			return
		}
	}
}

// Name returns the trace's workload name (immutable after NewReader, so
// safe to read while the decoder runs).
func (p *Pipelined) Name() string { return p.r.Name() }

// Next implements Source.
func (p *Pipelined) Next(d *DynInst) bool {
	for {
		if p.cur != nil && p.idx < p.cur.n {
			*d = p.cur.recs[p.idx]
			p.idx++
			return true
		}
		if p.done {
			return false
		}
		if p.cur != nil {
			if p.cur.last {
				p.done = true
				p.err = p.cur.err
				p.cur = nil
				return false
			}
			// Recycling never blocks: pipeDepth batches exist in total
			// and free has capacity for all of them.
			p.free <- p.cur
			p.cur = nil
		}
		p.cur = <-p.out
		p.idx = 0
	}
}

// Err implements Source: the Reader's final error, once the stream has
// reported end via Next.
func (p *Pipelined) Err() error { return p.err }

// Close stops the decode-ahead goroutine and waits for it to exit; the
// underlying Reader (and its file) may be released afterwards. Safe to
// call more than once.
func (p *Pipelined) Close() error {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
	return nil
}

var _ Source = (*Pipelined)(nil)
