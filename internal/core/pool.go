package core

import (
	"runtime"
	"sync"

	"clustervp/internal/config"
	"clustervp/internal/trace"
)

// Pool recycles Sims across runs so grid workers pay Reset (memclr)
// cost per job instead of construction cost. It is one free list, not
// one per machine shape: Reset reshapes a Sim to any cluster count and
// ROB size, so a worker reuses the Sim it last put back whatever the
// next job's machine, and a mixed grid pins one Sim per worker rather
// than one per worker and shape. Reuse is an optimization only: a
// pooled Sim's Reset restores every field to its NewFromSource state,
// so results are byte-identical with or without the pool (asserted by
// TestPoolGetPutReuse here and TestSimulatePoolArenaDeterminism in
// internal/runner).
type Pool struct {
	mu   sync.Mutex
	free []*Sim
}

// NewPool returns an empty pool; the zero Pool is empty too.
func NewPool() *Pool { return &Pool{} }

// DefaultPool is the process-wide pool every runner simulation (grid
// engine, clusterd service) and clustervp.RunProgram draw from.
var DefaultPool = NewPool()

// Get returns a Sim bound to cfg and src, reusing a pooled instance
// when one is available and constructing fresh otherwise. On a Reset
// error the pooled instance is discarded (a partially rewound Sim is
// not reusable) and the error returned.
func (p *Pool) Get(cfg config.Config, src trace.Source, benchmark string) (*Sim, error) {
	p.mu.Lock()
	var s *Sim
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
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
// or closure; everything else is rewound by the next Get's Reset. The
// free list is bounded at twice the worker parallelism — beyond that,
// extra Sims only pin memory.
func (p *Pool) Put(s *Sim) {
	if s == nil {
		return
	}
	s.src = nil
	s.progFn = nil
	limit := 2 * runtime.GOMAXPROCS(0)
	p.mu.Lock()
	if len(p.free) < limit {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}
