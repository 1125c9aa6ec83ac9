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
	"encoding/binary"
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
	// Future versions may append fields after the flags, each behind a
	// "-"; version 00 must be exactly 55 chars.
	if len(h) > 55 && (version == "00" || h[55] != '-') {
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

// NewTraceID returns a fresh random 32-hex trace id.
func NewTraceID() string {
	id := newTraceID()
	return hex.EncodeToString(id[:])
}

// NewSpanID returns a fresh random 16-hex span id.
func NewSpanID() string {
	id := newSpanID()
	return hex.EncodeToString(id[:])
}

// newTraceID draws a random trace id. math/rand/v2's global functions
// are concurrency-safe and plenty for correlation ids (these are not
// security tokens).
func newTraceID() (id [16]byte) {
	for {
		hi, lo := rand.Uint64(), rand.Uint64()
		if hi|lo != 0 { // all-zero is the W3C invalid sentinel
			binary.BigEndian.PutUint64(id[:8], hi)
			binary.BigEndian.PutUint64(id[8:], lo)
			return id
		}
	}
}

// newSpanID draws a random span id.
func newSpanID() (id [8]byte) {
	for {
		if v := rand.Uint64(); v != 0 {
			binary.BigEndian.PutUint64(id[:], v)
			return id
		}
	}
}

// Span is one finished timed operation in a trace, as the collector
// reports it and the exporters render it. Attrs values are strings so
// the wire shape stays trivial; numeric attributes are formatted by
// the instrumentation site.
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

// record is one finished span as the ring keeps it: binary ids, the
// start as Unix nanoseconds with the duration End measured, and the
// attributes in an exact-length slice. The service is the collector's,
// so no record repeats it. Recent and TraceSpans expand records into
// Spans; nothing else does.
type record struct {
	trace  [16]byte
	span   [8]byte
	parent [8]byte // zero when the span has no parent
	name   string
	start  int64         // Unix nanoseconds
	dur    time.Duration // measured on the monotonic clock
	attrs  []attr
}

// attr is one span attribute.
type attr struct{ k, v string }

// setAttr sets k, replacing an earlier value.
func (r *record) setAttr(k, v string) {
	for i := range r.attrs {
		if r.attrs[i].k == k {
			r.attrs[i].v = v
			return
		}
	}
	r.attrs = append(r.attrs, attr{k, v})
}

// export expands the record into its public form.
func (r *record) export(service string) Span {
	start := time.Unix(0, r.start)
	sp := Span{
		TraceID: hex.EncodeToString(r.trace[:]),
		SpanID:  hex.EncodeToString(r.span[:]),
		Name:    r.name,
		Service: service,
		Start:   start,
		End:     start.Add(r.dur),
		DurUS:   r.dur.Microseconds(),
	}
	if r.parent != [8]byte{} {
		sp.ParentID = hex.EncodeToString(r.parent[:])
	}
	if len(r.attrs) > 0 {
		sp.Attrs = make(map[string]string, len(r.attrs))
		for _, a := range r.attrs {
			sp.Attrs[a.k] = a.v
		}
	}
	return sp
}

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
	ring    []record
	next    int    // the oldest slot once the ring is full, else 0
	dropped uint64 // spans overwritten by ring wrap, for tracez stats
}

// DefaultRingSize bounds the collector when the caller passes <=0. A
// service's request and job spans keep about 190 B of live heap each
// (TestRetainedSpanBytes), so a full ring is about 3 MB.
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
	sp := c.start(name)
	if remote.Valid() {
		// Valid means lowercase hex of the ids' lengths: no decode error.
		_, _ = hex.Decode(sp.rec.trace[:], []byte(remote.TraceID))
		_, _ = hex.Decode(sp.rec.parent[:], []byte(remote.SpanID))
	} else {
		sp.rec.trace = newTraceID()
	}
	return sp
}

// start starts a span with a fresh span id and no trace yet.
func (c *Collector) start(name string) *ActiveSpan {
	now := time.Now()
	return &ActiveSpan{c: c, start: now, rec: record{span: newSpanID(), name: name, start: now.UnixNano()}}
}

// add records a finished span into the ring.
func (c *Collector) add(rec record) {
	c.mu.Lock()
	if len(c.ring) < c.size {
		if len(c.ring) == cap(c.ring) {
			// Double, as append would, but never past the capacity.
			grown := make([]record, len(c.ring), min(max(2*cap(c.ring), 16), c.size))
			copy(grown, c.ring)
			c.ring = grown
		}
		c.ring = append(c.ring, rec)
	} else {
		c.ring[c.next] = rec
		c.next = (c.next + 1) % c.size
		c.dropped++
	}
	c.mu.Unlock()
}

// export expands records into Spans. It runs outside c.mu: a record's
// fields never change once it is in the ring.
func (c *Collector) export(recs []record) []Span {
	out := make([]Span, len(recs))
	for i := range recs {
		out[i] = recs[i].export(c.service)
	}
	return out
}

// TraceSpans returns every retained finished span of one trace,
// oldest-first. Spans still in flight are not included — they appear
// once they end.
func (c *Collector) TraceSpans(traceID string) []Span {
	if c == nil {
		return nil
	}
	// An id that is not 32 lowercase hex stays zero, which no recorded
	// trace has.
	var id [16]byte
	if isHexID(traceID, 32) {
		_, _ = hex.Decode(id[:], []byte(traceID))
	}
	var recs []record
	c.mu.Lock()
	for _, part := range [2][]record{c.ring[c.next:], c.ring[:c.next]} {
		for i := range part {
			if part[i].trace == id {
				recs = append(recs, part[i])
			}
		}
	}
	c.mu.Unlock()
	return c.export(recs)
}

// Recent returns up to limit of the most recently finished spans,
// oldest-first (limit <= 0 returns the whole retained ring).
func (c *Collector) Recent(limit int) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	older, newer := c.ring[c.next:], c.ring[:c.next]
	if limit <= 0 || limit > len(c.ring) {
		limit = len(c.ring)
	}
	recs := make([]record, 0, limit)
	if skip := len(c.ring) - limit; skip < len(older) {
		recs = append(append(recs, older[skip:]...), newer...)
	} else {
		recs = append(recs, newer[skip-len(older):]...)
	}
	c.mu.Unlock()
	return c.export(recs)
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
	c     *Collector
	start time.Time // with the monotonic reading End measures against

	mu    sync.Mutex
	rec   record // its ids, name and start never change
	ended bool
}

// Context returns the span's propagated identity (zero for nil).
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.TraceID(), SpanID: a.SpanID()}
}

// TraceID returns the span's trace id ("" for nil).
func (a *ActiveSpan) TraceID() string {
	if a == nil {
		return ""
	}
	return hex.EncodeToString(a.rec.trace[:])
}

// SpanID returns the span's own id ("" for nil).
func (a *ActiveSpan) SpanID() string {
	if a == nil {
		return ""
	}
	return hex.EncodeToString(a.rec.span[:])
}

// StartTime returns when the span started (zero for nil).
func (a *ActiveSpan) StartTime() time.Time {
	if a == nil {
		return time.Time{}
	}
	return a.start
}

// EndTime returns when the span ended (zero for nil or still running):
// its start plus the duration End measured.
func (a *ActiveSpan) EndTime() time.Time {
	if a == nil {
		return time.Time{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.ended {
		return time.Time{}
	}
	return a.start.Add(a.rec.dur)
}

// SetAttr attaches a key/value attribute, replacing an earlier value
// of the key. Setting after End is a silent no-op (the span is already
// in the ring).
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.ended {
		a.rec.setAttr(k, v)
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
	a.rec.dur = time.Since(a.start)
	if len(a.rec.attrs) < cap(a.rec.attrs) {
		// The ring keeps the record for thousands of spans' time: trim
		// append's headroom.
		a.rec.attrs = append([]attr(nil), a.rec.attrs...)
	}
	rec := a.rec
	a.mu.Unlock()
	a.c.add(rec)
}

// StartChild starts a new span under this one, in the same collector
// and trace. Nil-safe: a nil parent yields a nil child.
func (a *ActiveSpan) StartChild(name string) *ActiveSpan {
	if a == nil {
		return nil
	}
	sp := a.c.start(name)
	sp.rec.trace = a.rec.trace
	sp.rec.parent = a.rec.span
	return sp
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
