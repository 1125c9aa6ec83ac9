package core

import (
	"runtime"
	"sync"

	"clustervp/internal/config"
	"clustervp/internal/trace"
)

// Pool recycles Sims across runs so grid workers pay Reset (memclr)
// cost per job instead of construction cost. Instances are keyed by
// cluster count — the one shape axis along which Reset must reallocate
// per-cluster state — so a heterogeneous grid still reuses within each
// shape. Reuse is an optimization only: a pooled Sim's Reset restores
// every field to its NewFromSource state, so results are byte-identical
// with or without the pool (asserted by TestSimulatePoolArenaDeterminism
// in internal/runner).
type Pool struct {
	mu   sync.Mutex
	free map[int][]*Sim
}

// NewPool returns an empty pool. The zero Pool is not usable.
func NewPool() *Pool { return &Pool{free: make(map[int][]*Sim)} }

// DefaultPool is the process-wide pool every runner simulation (grid
// engine, clusterd service) and clustervp.RunProgram draw from.
var DefaultPool = NewPool()

// Get returns a Sim bound to cfg and src, reusing a pooled instance of
// the same cluster shape when one is available and constructing fresh
// otherwise. On a Reset error the pooled instance is discarded (a
// partially rewound Sim is not reusable) and the error returned.
func (p *Pool) Get(cfg config.Config, src trace.Source, benchmark string) (*Sim, error) {
	nc := cfg.NumClusters()
	p.mu.Lock()
	var s *Sim
	if l := p.free[nc]; len(l) > 0 {
		s = l[len(l)-1]
		l[len(l)-1] = nil
		p.free[nc] = l[:len(l)-1]
	}
	p.mu.Unlock()
	if s == nil {
		return NewFromSource(cfg, src, benchmark)
	}
	if err := s.Reset(cfg, src, benchmark); err != nil {
		return nil, err
	}
	return s, nil
}

// Put returns s to the pool after a run. The source and progress
// callback are dropped immediately so the pool never pins a trace file
// or closure; everything else is rewound by the next Get's Reset. Each
// shape's free list is bounded to roughly the worker parallelism —
// beyond that, extra Sims only pin memory.
func (p *Pool) Put(s *Sim) {
	if s == nil {
		return
	}
	s.src = nil
	s.progFn = nil
	nc := len(s.res)
	limit := 2 * runtime.GOMAXPROCS(0)
	p.mu.Lock()
	if len(p.free[nc]) < limit {
		p.free[nc] = append(p.free[nc], s)
	}
	p.mu.Unlock()
}
