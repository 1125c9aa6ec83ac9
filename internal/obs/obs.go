// Package obs is the stdlib-only distributed-tracing subsystem behind
// clusterd's third observability pillar (metrics and logs being the
// first two): Dapper-style spans with W3C traceparent propagation, a
// lock-cheap bounded ring collector, and exporters for Chrome
// trace-event JSON (chrome://tracing / Perfetto loadable) and a plain
// span dump.
//
// Design constraints, in order:
//
//   - The simulation hot loop must stay allocation-free: spans start
//     and end OUTSIDE the cycle loop (admission, queue wait, dispatch,
//     trace materialization, one span around the whole simulation);
//     anything per-cycle is a plain counter read at job end
//     (core.Sim.PhaseCycles) and recorded as span attributes.
//   - Every instrumentation entry point is nil-receiver safe, so a
//     code path without a collector (cmd/experiments, plain
//     runner.Simulate) pays one nil check and no allocation.
//   - A span is recorded into the ring only when it ends; an abandoned
//     span costs nothing and leaks nothing.
//
// Propagation follows the W3C Trace Context recommendation: the
// "traceparent" header carries "00-<32 hex trace id>-<16 hex parent
// span id>-<2 hex flags>". Malformed or foreign headers are tolerated
// by starting a fresh root trace — propagation failure degrades to a
// shorter trace, never to a request failure.
package obs

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// SpanContext is the propagated identity of a span: what crosses
// process boundaries in a traceparent header.
type SpanContext struct {
	TraceID string // 32 lowercase hex chars, not all zero
	SpanID  string // 16 lowercase hex chars, not all zero
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool {
	return isHexID(sc.TraceID, 32) && isHexID(sc.SpanID, 16)
}

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set).
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent decodes a W3C traceparent header. It is tolerant by
// contract: any malformed, foreign-version-ff or all-zero header
// returns ok=false and the caller starts a new root trace — never an
// error, never a 4xx.
func ParseTraceparent(h string) (sc SpanContext, ok bool) {
	h = strings.TrimSpace(h)
	// version "-" trace-id "-" parent-id "-" flags = 2+1+32+1+16+1+2.
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	version := h[:2]
	if !isHex(version) || version == "ff" {
		return SpanContext{}, false
	}
	// Future versions may append fields after the flags; version 00
	// must be exactly 55 chars.
	if version == "00" && len(h) != 55 {
		return SpanContext{}, false
	}
	sc = SpanContext{TraceID: h[3:35], SpanID: h[36:52]}
	if !sc.Valid() || !isHex(h[53:55]) {
		return SpanContext{}, false
	}
	return sc, true
}

// isHex reports whether s is non-empty lowercase hex (zero allowed —
// used for the version and flags fields, where 00 is legal).
func isHex(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// isHexID reports whether s is exactly n lowercase hex chars and not
// all zero (the W3C all-zero id is the "invalid" sentinel).
func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// NewTraceID returns a fresh random 32-hex trace id. math/rand/v2's
// global functions are concurrency-safe and plenty for correlation ids
// (these are not security tokens).
func NewTraceID() string {
	var b [16]byte
	for {
		hi, lo := rand.Uint64(), rand.Uint64()
		if hi|lo == 0 {
			continue // all-zero is the W3C invalid sentinel
		}
		putUint64(b[:8], hi)
		putUint64(b[8:], lo)
		return hex.EncodeToString(b[:])
	}
}

// NewSpanID returns a fresh random 16-hex span id.
func NewSpanID() string {
	var b [8]byte
	for {
		v := rand.Uint64()
		if v == 0 {
			continue
		}
		putUint64(b[:], v)
		return hex.EncodeToString(b[:])
	}
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// Span is one finished timed operation in a trace, the unit the
// collector ring stores and the exporters render. Attrs values are
// strings so the wire shape stays trivial; numeric attributes are
// formatted by the instrumentation site.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Service names the process that recorded the span ("clusterd",
	// "coordinator"); the Chrome exporter maps it to a pid lane, so a
	// merged coordinator+replica trace reads as two processes.
	Service string    `json:"service,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	// DurUS is End-Start in microseconds, denormalized so checkers and
	// the Chrome exporter never re-parse timestamps.
	DurUS int64             `json:"dur_us"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Collector is a bounded ring of finished spans: starting a span is
// two id draws and a timestamp, ending it is one short critical
// section appending to the ring. The ring grows by use up to its
// capacity; past it, the oldest spans are overwritten — recent traces
// stay queryable, memory stays bounded, and nothing is ever blocked on
// the collector.
type Collector struct {
	service string
	size    int // the ring's capacity in spans

	mu      sync.Mutex
	ring    []Span
	next    int
	wrapped bool
	dropped uint64 // spans overwritten by ring wrap, for tracez stats
}

// DefaultRingSize bounds the collector when the caller passes <=0: at
// ~300 B/span this is a few MB of recent history.
const DefaultRingSize = 16384

// NewCollector returns a collector whose spans carry the given service
// name. capacity <= 0 selects DefaultRingSize.
func NewCollector(service string, capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Collector{service: service, size: capacity}
}

// Service reports the process name stamped on this collector's spans.
func (c *Collector) Service() string {
	if c == nil {
		return ""
	}
	return c.service
}

// StartRoot starts a span with no local parent. A valid remote parent
// (from a traceparent header) continues that trace; an invalid one
// starts a fresh root trace. Nil-safe: a nil collector returns a nil
// span, and every ActiveSpan method tolerates a nil receiver.
func (c *Collector) StartRoot(name string, remote SpanContext) *ActiveSpan {
	if c == nil {
		return nil
	}
	sp := &ActiveSpan{
		c: c,
		span: Span{
			SpanID:  NewSpanID(),
			Name:    name,
			Service: c.service,
			Start:   time.Now(),
		},
	}
	if remote.Valid() {
		sp.span.TraceID = remote.TraceID
		sp.span.ParentID = remote.SpanID
	} else {
		sp.span.TraceID = NewTraceID()
	}
	return sp
}

// add records a finished span into the ring.
func (c *Collector) add(sp Span) {
	c.mu.Lock()
	if len(c.ring) < c.size {
		if len(c.ring) == cap(c.ring) {
			// Double, as append would, but never past the capacity.
			grown := make([]Span, len(c.ring), min(max(2*cap(c.ring), 16), c.size))
			copy(grown, c.ring)
			c.ring = grown
		}
		c.ring = append(c.ring, sp)
	} else {
		c.ring[c.next] = sp
		c.next = (c.next + 1) % c.size
		c.wrapped = true
		c.dropped++
	}
	c.mu.Unlock()
}

// snapshotLocked copies the ring oldest-first; c.mu must be held.
func (c *Collector) snapshotLocked() []Span {
	if !c.wrapped {
		return append([]Span(nil), c.ring...)
	}
	out := make([]Span, 0, len(c.ring))
	out = append(out, c.ring[c.next:]...)
	out = append(out, c.ring[:c.next]...)
	return out
}

// TraceSpans returns every retained finished span of one trace,
// oldest-first. Spans still in flight are not included — they appear
// once they end.
func (c *Collector) TraceSpans(traceID string) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	all := c.snapshotLocked()
	c.mu.Unlock()
	out := make([]Span, 0, 8)
	for _, sp := range all {
		if sp.TraceID == traceID {
			out = append(out, sp)
		}
	}
	return out
}

// Recent returns up to limit of the most recently finished spans,
// oldest-first (limit <= 0 returns the whole retained ring).
func (c *Collector) Recent(limit int) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	all := c.snapshotLocked()
	c.mu.Unlock()
	if limit > 0 && len(all) > limit {
		all = all[len(all)-limit:]
	}
	return all
}

// Dropped reports how many finished spans the ring has overwritten.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Len reports how many finished spans the ring currently retains.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ring)
}

// ActiveSpan is a span in flight. It is recorded into the collector
// ring by End (exactly once); SetAttr may be called from the owning
// goroutine between Start and End. All methods are nil-receiver safe.
type ActiveSpan struct {
	c *Collector

	mu    sync.Mutex
	span  Span
	ended bool
}

// Context returns the span's propagated identity (zero for nil).
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.span.TraceID, SpanID: a.span.SpanID}
}

// TraceID returns the span's trace id ("" for nil).
func (a *ActiveSpan) TraceID() string {
	if a == nil {
		return ""
	}
	return a.span.TraceID
}

// SpanID returns the span's own id ("" for nil).
func (a *ActiveSpan) SpanID() string {
	if a == nil {
		return ""
	}
	return a.span.SpanID
}

// StartTime returns when the span started (zero for nil).
func (a *ActiveSpan) StartTime() time.Time {
	if a == nil {
		return time.Time{}
	}
	return a.span.Start
}

// EndTime returns when the span ended (zero for nil or still running).
func (a *ActiveSpan) EndTime() time.Time {
	if a == nil {
		return time.Time{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.span.End
}

// SetAttr attaches a key/value attribute. Setting after End is a
// silent no-op (the span is already in the ring).
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.ended {
		if a.span.Attrs == nil {
			a.span.Attrs = make(map[string]string, 4)
		}
		a.span.Attrs[k] = v
	}
	a.mu.Unlock()
}

// End finishes the span and records it into the collector ring.
// Idempotent: only the first call records.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	a.span.End = time.Now()
	a.span.DurUS = a.span.End.Sub(a.span.Start).Microseconds()
	sp := a.span
	a.mu.Unlock()
	a.c.add(sp)
}

// StartChild starts a new span under this one, in the same collector
// and trace. Nil-safe: a nil parent yields a nil child.
func (a *ActiveSpan) StartChild(name string) *ActiveSpan {
	if a == nil {
		return nil
	}
	return &ActiveSpan{
		c: a.c,
		span: Span{
			TraceID:  a.span.TraceID,
			SpanID:   NewSpanID(),
			ParentID: a.span.SpanID,
			Name:     name,
			Service:  a.c.service,
			Start:    time.Now(),
		},
	}
}

// ctxKey keys the active span in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the span (ctx unchanged for nil).
func NewContext(ctx context.Context, s *ActiveSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the context's active span, or nil.
func FromContext(ctx context.Context) *ActiveSpan {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*ActiveSpan)
	return s
}
