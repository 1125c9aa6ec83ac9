package service

// Tenant model: API-key authentication with per-tenant admission
// quotas. A server configured with tenants rejects unauthenticated
// requests (401) and enforces each tenant's queue quota, in-flight
// bound and priority ceiling at admission time (429). A server with no
// tenants runs open, exactly like before this layer existed: every
// request is attributed to the built-in "anonymous" tenant, which has
// no key and no quotas.

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// Tenant is one API-key principal and its admission limits, as declared
// in the tenants file (see ParseTenants for the JSON shape). The zero
// value of every limit means "unlimited".
type Tenant struct {
	// Name identifies the tenant in job records, statsz and metrics
	// labels. Required, unique.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <key>" or
	// "X-API-Key: <key>". Required, unique, at least 8 characters. It
	// never appears in logs, statsz or metrics.
	Key string `json:"key"`
	// MaxQueued bounds this tenant's queued-but-not-running jobs
	// (0 = unlimited). Exceeding it answers 429 quota_exceeded.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxInFlight bounds queued plus running jobs (0 = unlimited).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// MaxPriority caps the priority this tenant can request
	// (0 = uncapped). Higher requested priorities are clamped, not
	// rejected — a misconfigured client still runs, just not ahead of
	// everyone else.
	MaxPriority int `json:"max_priority,omitempty"`
}

// tenantsFile is the on-disk JSON shape of -tenants.
type tenantsFile struct {
	Tenants []Tenant `json:"tenants"`
}

// ParseTenants decodes and validates a tenants file:
//
//	{"tenants": [
//	  {"name": "alice", "key": "alice-key-0001", "max_queued": 8,
//	   "max_in_flight": 16, "max_priority": 5},
//	  {"name": "bob", "key": "bob-key-0001"}
//	]}
//
// Unknown fields and anything after the object but whitespace are
// rejected, like on every other JSON surface of the service: a
// misspelled quota knob silently defaulting to unlimited is an outage,
// not a convenience, and so is a second object silently dropped.
func ParseTenants(data []byte) ([]Tenant, error) {
	var f tenantsFile
	if err := decodeStrict(bytes.NewReader(data), &f); err != nil {
		return nil, fmt.Errorf("tenants file: %w", err)
	}
	if len(f.Tenants) == 0 {
		return nil, fmt.Errorf("tenants file: declares no tenants")
	}
	if err := validateTenants(f.Tenants); err != nil {
		return nil, fmt.Errorf("tenants file: %w", err)
	}
	return f.Tenants, nil
}

// validateTenants enforces the tenant invariants for both the tenants
// file and programmatic Options.Tenants.
func validateTenants(tenants []Tenant) error {
	names := make(map[string]bool, len(tenants))
	keys := make(map[string]bool, len(tenants))
	for i, t := range tenants {
		switch {
		case t.Name == "":
			return fmt.Errorf("tenant %d has no name", i)
		case t.Name == anonymousTenant:
			return fmt.Errorf("%q is the reserved open-mode tenant name", t.Name)
		case names[t.Name]:
			return fmt.Errorf("duplicate tenant name %q", t.Name)
		case len(t.Key) < 8:
			return fmt.Errorf("tenant %q: key must be at least 8 characters", t.Name)
		case keys[t.Key]:
			return fmt.Errorf("tenant %q: key already used by another tenant", t.Name)
		case t.MaxQueued < 0 || t.MaxInFlight < 0 || t.MaxPriority < 0:
			return fmt.Errorf("tenant %q: quotas must be >= 0", t.Name)
		}
		names[t.Name] = true
		keys[t.Key] = true
	}
	return nil
}

// LoadTenantsFile reads and parses a tenants file from disk.
func LoadTenantsFile(path string) ([]Tenant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ts, err := ParseTenants(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}

// anonymousTenant is the implicit principal of open (no-tenants) mode
// and of direct Go API calls (Server.Submit and friends).
const anonymousTenant = "anonymous"

// tenantState is one tenant's live accounting. queued/running mirror
// the queue and worker pool and are guarded by Server.mu; the counters
// are atomics so statsz and /metrics snapshot them without the lock.
type tenantState struct {
	cfg Tenant

	// queued and running are guarded by Server.mu.
	queued  int
	running int

	submitted atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	cacheHits atomic.Int64
	shed      atomic.Int64 // admissions rejected by quota or queue saturation
}

// clampPriority applies the tenant's priority ceiling.
func (t *tenantState) clampPriority(p int) int {
	if t.cfg.MaxPriority > 0 && p > t.cfg.MaxPriority {
		return t.cfg.MaxPriority
	}
	return p
}

// admitLocked checks whether n more jobs fit inside the tenant's
// quotas; Server.mu must be held. It returns the exhausted quota's
// name and limit on rejection.
func (t *tenantState) admitLocked(n int) (quota string, limit int, ok bool) {
	if t.cfg.MaxQueued > 0 && t.queued+n > t.cfg.MaxQueued {
		return "max_queued", t.cfg.MaxQueued, false
	}
	if t.cfg.MaxInFlight > 0 && t.queued+t.running+n > t.cfg.MaxInFlight {
		return "max_in_flight", t.cfg.MaxInFlight, false
	}
	return "", 0, true
}

// TenantStats is one tenant's section of the statsz payload.
type TenantStats struct {
	Name      string `json:"name"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted int64  `json:"submitted"`
	Done      int64  `json:"done"`
	Failed    int64  `json:"failed"`
	CacheHits int64  `json:"cache_hits"`
	LoadShed  int64  `json:"load_shed"`

	MaxQueued   int `json:"max_queued,omitempty"`
	MaxInFlight int `json:"max_in_flight,omitempty"`
	MaxPriority int `json:"max_priority,omitempty"`
}

// newTenantStates builds the registry (name → state) plus the implicit
// anonymous tenant.
func newTenantStates(tenants []Tenant) (states map[string]*tenantState, anon *tenantState) {
	anon = &tenantState{cfg: Tenant{Name: anonymousTenant}}
	states = make(map[string]*tenantState, len(tenants))
	for _, t := range tenants {
		states[t.Name] = &tenantState{cfg: t}
	}
	return states, anon
}

// lookupByKey resolves an API key to its tenant in constant time per
// candidate, so key comparison never leaks prefix length through
// timing. Tenant counts are small; O(n) is fine.
func lookupByKey(states map[string]*tenantState, key string) *tenantState {
	var found *tenantState
	for _, t := range states {
		if subtle.ConstantTimeCompare([]byte(t.cfg.Key), []byte(key)) == 1 {
			found = t
		}
	}
	return found
}

// snapshotTenants renders deterministic per-tenant stats. mu guards
// queued/running at the caller (Server.Stats holds Server.mu).
func snapshotTenants(states map[string]*tenantState, anon *tenantState, multiTenant bool) []TenantStats {
	out := make([]TenantStats, 0, len(states)+1)
	add := func(t *tenantState) {
		out = append(out, TenantStats{
			Name:        t.cfg.Name,
			Queued:      t.queued,
			Running:     t.running,
			Submitted:   t.submitted.Load(),
			Done:        t.done.Load(),
			Failed:      t.failed.Load(),
			CacheHits:   t.cacheHits.Load(),
			LoadShed:    t.shed.Load(),
			MaxQueued:   t.cfg.MaxQueued,
			MaxInFlight: t.cfg.MaxInFlight,
			MaxPriority: t.cfg.MaxPriority,
		})
	}
	if multiTenant {
		for _, t := range states {
			add(t)
		}
		// The anonymous tenant only shows up when the Go API was used
		// directly on a multi-tenant server; an all-zero row would just
		// be noise.
		if anon.submitted.Load() > 0 {
			add(anon)
		}
	} else {
		add(anon)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
