package fleet

// Replica health: a three-state machine driven by periodic
// /v1/healthz probes.
//
//	up ──1 failed probe──▶ draining ──DownAfter consecutive──▶ down
//	 ▲                        │                                  │
//	 └────────── any successful probe resets to up ──────────────┘
//
// Draining is the hedge against a single dropped probe: the replica
// takes no NEW shards but keeps whatever it is running — a transient
// blip costs nothing. Down means the ring skips it entirely and any
// shard that was in flight there fails over (the dispatch loop notices
// on its own, through the broken stream). Health never influences
// shard *assignment* — only which replica *executes* — so the output
// stays byte-identical through any failure pattern.

import (
	"context"
	"sync"
	"time"

	"clustervp/internal/service/client"
)

type replicaHealth int32

const (
	replicaUp replicaHealth = iota
	replicaDraining
	replicaDown
)

func (h replicaHealth) String() string {
	switch h {
	case replicaUp:
		return "up"
	case replicaDraining:
		return "draining"
	default:
		return "down"
	}
}

// replica is one clusterd instance in the fleet.
type replica struct {
	name string
	base string
	c    *client.Client

	mu          sync.Mutex
	state       replicaHealth
	consecFails int
	inflight    int   // shards currently dispatched here
	dispatched  int64 // lifetime shard submissions
	completed   int64 // lifetime terminal shards delivered
}

// acceptsWork reports whether the ring may hand this replica a new
// shard.
func (r *replica) acceptsWork() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state == replicaUp
}

func (r *replica) health() replicaHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// started/finished bracket one dispatch attempt on the replica, from
// the send to the terminal line or the failure.
func (r *replica) started() {
	r.mu.Lock()
	r.inflight++
	r.dispatched++
	r.mu.Unlock()
}

// finished closes the bracket; delivered says whether the replica
// actually answered with a terminal state (false = the shard was
// orphaned there and Dispatched-Completed keeps the scar).
func (r *replica) finished(delivered bool) {
	r.mu.Lock()
	r.inflight--
	if delivered {
		r.completed++
	}
	r.mu.Unlock()
}

// dispatchFailed is a failed shard-level interaction — weaker evidence
// than a failed probe (the request itself might have been the problem),
// so it only nudges an Up replica into draining; the probe loop decides
// anything further.
func (r *replica) dispatchFailed() {
	r.mu.Lock()
	if r.state == replicaUp {
		r.state = replicaDraining
	}
	r.mu.Unlock()
}

// probeResult folds one probe outcome into the state machine and
// reports the (possibly new) state.
func (r *replica) probeResult(ok bool, downAfter int) replicaHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		r.state = replicaUp
		r.consecFails = 0
		return r.state
	}
	r.consecFails++
	if r.consecFails >= downAfter {
		r.state = replicaDown
	} else if r.state == replicaUp {
		r.state = replicaDraining
	}
	return r.state
}

// probeLoop probes every replica each interval, concurrently, until
// Close.
func (d *dispatcher) probeLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-ticker.C:
			d.probeAll()
		}
	}
}

// probeAll runs one probe round.
func (d *dispatcher) probeAll() {
	var wg sync.WaitGroup
	for _, r := range d.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(d.ctx, d.opts.ProbeInterval)
			defer cancel()
			before := r.health()
			after := r.probeResult(r.c.Health(ctx) == nil, d.opts.DownAfter)
			if before != after {
				d.logger.Info("replica health changed",
					"replica", r.name, "from", before.String(), "to", after.String())
			}
		}(r)
	}
	wg.Wait()
}

// liveReplicas counts replicas currently accepting new shards.
func (d *dispatcher) liveReplicas() int {
	n := 0
	for _, r := range d.replicas {
		if r.acceptsWork() {
			n++
		}
	}
	return n
}

// pick returns the attempt-th choice of the failover ring for a home
// shard: scan forward from (home+attempt) mod N to the next replica
// accepting work. attempt 0 on a healthy fleet is always the home
// replica itself — the deterministic default path.
func (d *dispatcher) pick(home, attempt int) *replica {
	n := len(d.replicas)
	start := (home + attempt) % n
	for i := 0; i < n; i++ {
		r := d.replicas[(start+i)%n]
		if r.acceptsWork() {
			return r
		}
	}
	return nil
}
