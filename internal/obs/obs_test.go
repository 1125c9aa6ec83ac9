package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) not ok", valid)
	}
	if sc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || sc.SpanID != "00f067aa0ba902b7" {
		t.Fatalf("parsed %+v", sc)
	}
	if got := sc.Traceparent(); got != valid {
		t.Fatalf("round trip: got %q want %q", got, valid)
	}

	// A future version may carry extra fields after the flags, each
	// behind a "-", or end at the flags.
	for _, h := range []string{
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	} {
		if _, ok := ParseTraceparent(h); !ok {
			t.Errorf("future-version header %q should parse", h)
		}
	}

	bad := []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // v00 must be exact length
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // version ff forbidden
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // all-zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01",   // non-hex
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // short version
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01x",  // flags run on past 2 chars
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed header", h)
		}
	}
}

func TestNewIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tr, sp := NewTraceID(), NewSpanID()
		if !isHexID(tr, 32) {
			t.Fatalf("bad trace id %q", tr)
		}
		if !isHexID(sp, 16) {
			t.Fatalf("bad span id %q", sp)
		}
		if seen[tr] || seen[sp] {
			t.Fatalf("duplicate id in 100 draws")
		}
		seen[tr], seen[sp] = true, true
	}
}

func TestCollectorSpanLifecycle(t *testing.T) {
	c := NewCollector("testsvc", 8)
	root := c.StartRoot("job", SpanContext{})
	if !root.Context().Valid() {
		t.Fatal("root has invalid context")
	}
	child := root.StartChild("queue.wait")
	child.SetAttr("k", "v")
	if c.Len() != 0 {
		t.Fatalf("in-flight spans must not be in ring, Len=%d", c.Len())
	}
	child.End()
	child.End() // idempotent
	child.SetAttr("late", "ignored")
	root.End()

	if c.Len() != 2 {
		t.Fatalf("Len=%d want 2", c.Len())
	}
	spans := c.TraceSpans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("TraceSpans=%d want 2", len(spans))
	}
	// Ring is oldest-first: child ended first.
	if spans[0].Name != "queue.wait" || spans[1].Name != "job" {
		t.Fatalf("order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].ParentID != root.SpanID() {
		t.Fatalf("child parent %q want %q", spans[0].ParentID, root.SpanID())
	}
	if spans[0].TraceID != root.TraceID() {
		t.Fatal("child and root trace ids differ")
	}
	if spans[0].Attrs["k"] != "v" {
		t.Fatalf("attr lost: %v", spans[0].Attrs)
	}
	if _, ok := spans[0].Attrs["late"]; ok {
		t.Fatal("SetAttr after End must be a no-op")
	}
	if spans[0].Service != "testsvc" {
		t.Fatalf("service %q", spans[0].Service)
	}
	if spans[0].DurUS < 0 || spans[0].End.Before(spans[0].Start) {
		t.Fatalf("bad timing %+v", spans[0])
	}
}

func TestCollectorRemoteParent(t *testing.T) {
	c := NewCollector("svc", 8)
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	sp := c.StartRoot("handler", remote)
	if sp.TraceID() != remote.TraceID {
		t.Fatal("remote parent did not continue the trace")
	}
	sp.End()
	if got := c.TraceSpans(remote.TraceID)[0].ParentID; got != remote.SpanID {
		t.Fatalf("parent %q want %q", got, remote.SpanID)
	}

	// Invalid remote context -> fresh root trace.
	sp2 := c.StartRoot("handler", SpanContext{TraceID: "zzz", SpanID: "1"})
	if sp2.TraceID() == "" || sp2.TraceID() == "zzz" {
		t.Fatalf("invalid remote produced trace id %q", sp2.TraceID())
	}
}

func TestCollectorRingWrap(t *testing.T) {
	c := NewCollector("svc", 4)
	for i := 0; i < 10; i++ {
		sp := c.StartRoot("s", SpanContext{})
		sp.SetAttr("i", FormatAttr(i))
		sp.End()
	}
	if c.Len() != 4 {
		t.Fatalf("Len=%d want 4", c.Len())
	}
	if c.Dropped() != 6 {
		t.Fatalf("Dropped=%d want 6", c.Dropped())
	}
	recent := c.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent=%d want 4", len(recent))
	}
	// Oldest-first: the retained spans are i=6..9.
	for k, sp := range recent {
		if want := FormatAttr(6 + k); sp.Attrs["i"] != want {
			t.Fatalf("recent[%d].i=%q want %q", k, sp.Attrs["i"], want)
		}
	}
	if got := c.Recent(2); len(got) != 2 || got[1].Attrs["i"] != "9" {
		t.Fatalf("Recent(2) wrong tail: %+v", got)
	}
}

// TestCollectorRingGrowsByUse: the ring holds no span storage until
// spans finish, grows by use without passing its capacity, and reads
// the same as a preallocated ring at and past the capacity.
func TestCollectorRingGrowsByUse(t *testing.T) {
	const size = 100 // not a power of two, so doubling overshoots it
	c := NewCollector("svc", size)
	if cap(c.ring) != 0 {
		t.Fatalf("a new collector holds %d spans of storage, want 0", cap(c.ring))
	}
	traces := make([]string, 0, size+3)
	end := func(i int) {
		sp := c.StartRoot("s", SpanContext{})
		sp.SetAttr("i", FormatAttr(i))
		sp.End()
		traces = append(traces, sp.TraceID())
	}
	for i := 0; i < size; i++ {
		end(i)
		if cap(c.ring) > size {
			t.Fatalf("after %d spans the ring holds %d, past its capacity %d", i+1, cap(c.ring), size)
		}
	}
	if c.Len() != size || c.Dropped() != 0 || cap(c.ring) != size {
		t.Fatalf("at capacity: Len=%d Dropped=%d cap=%d, want %d, 0, %d", c.Len(), c.Dropped(), cap(c.ring), size, size)
	}
	if got := c.Recent(0); got[0].Attrs["i"] != "0" || got[size-1].Attrs["i"] != FormatAttr(size-1) {
		t.Fatalf("at capacity: Recent spans %s..%s, want 0..%d", got[0].Attrs["i"], got[size-1].Attrs["i"], size-1)
	}
	for i := size; i < size+3; i++ {
		end(i)
	}
	if c.Len() != size || c.Dropped() != 3 || cap(c.ring) != size {
		t.Fatalf("past capacity: Len=%d Dropped=%d cap=%d, want %d, 3, %d", c.Len(), c.Dropped(), cap(c.ring), size, size)
	}
	// Oldest-first: the retained spans are i=3..size+2.
	for k, sp := range c.Recent(0) {
		if want := FormatAttr(3 + k); sp.Attrs["i"] != want {
			t.Fatalf("recent[%d].i=%q want %q", k, sp.Attrs["i"], want)
		}
	}
	if got := c.TraceSpans(traces[2]); len(got) != 0 {
		t.Fatalf("an overwritten span's trace still has %d spans", len(got))
	}
	if got := c.TraceSpans(traces[3]); len(got) != 1 || got[0].Attrs["i"] != "3" {
		t.Fatalf("the oldest retained trace: %+v", got)
	}
	if got := c.Recent(2); len(got) != 2 || got[1].Attrs["i"] != FormatAttr(size+2) {
		t.Fatalf("Recent(2) wrong tail: %+v", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	sp := c.StartRoot("x", SpanContext{})
	if sp != nil {
		t.Fatal("nil collector must return nil span")
	}
	// Every method on a nil span is a no-op, not a panic.
	sp.SetAttr("a", "b")
	sp.End()
	if sp.Context().Valid() || sp.TraceID() != "" || sp.SpanID() != "" {
		t.Fatal("nil span has identity")
	}
	if !sp.StartTime().IsZero() || !sp.EndTime().IsZero() {
		t.Fatal("nil span has time")
	}
	if child := sp.StartChild("y"); child != nil {
		t.Fatal("nil span produced a child")
	}
	if c.TraceSpans("t") != nil || c.Recent(5) != nil || c.Len() != 0 || c.Dropped() != 0 || c.Service() != "" {
		t.Fatal("nil collector leaked data")
	}
}

func TestContextHelpers(t *testing.T) {
	c := NewCollector("svc", 8)
	sp := c.StartRoot("root", SpanContext{})
	ctx := NewContext(context.Background(), sp)
	if got := FromContext(ctx); got != sp {
		t.Fatal("FromContext lost the span")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context returned a span")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil tolerance is the contract
		t.Fatal("nil context returned a span")
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Fatal("NewContext(nil span) should be identity")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := NewCollector("clusterd", 16)
	root := c.StartRoot("job j-1", SpanContext{})
	q := root.StartChild("queue.wait")
	time.Sleep(time.Millisecond)
	q.End()
	run := root.StartChild("job.run")
	run.SetAttr("via", "simulated")
	run.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c.TraceSpans(root.TraceID())); err != nil {
		t.Fatal(err)
	}
	var out struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", out.DisplayTimeUnit)
	}
	var meta, complete int
	var sawVia bool
	minTS := 1e18
	for _, ev := range out.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
			if ev.Args["name"] != "clusterd" {
				t.Fatalf("process_name %v", ev.Args)
			}
		case "X":
			complete++
			if ev.TS < minTS {
				minTS = ev.TS
			}
			if ev.Dur < 0 {
				t.Fatalf("negative dur in %q", ev.Name)
			}
			if ev.Args["trace_id"] != root.TraceID() {
				t.Fatalf("event %q missing trace_id arg", ev.Name)
			}
			if ev.Name == "job.run" && ev.Args["via"] == "simulated" {
				sawVia = true
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if meta != 1 || complete != 3 {
		t.Fatalf("meta=%d complete=%d", meta, complete)
	}
	if minTS != 0 {
		t.Fatalf("timestamps not normalized, min ts %v", minTS)
	}
	if !sawVia {
		t.Fatal("span attr did not survive into chrome args")
	}
}

func TestWriteChromeTraceLanes(t *testing.T) {
	// Two services (coordinator + replica) and two independent roots:
	// expect two pid lanes and distinct tids for the two roots.
	co := NewCollector("coordinator", 16)
	rep := NewCollector("clusterd", 16)
	r1 := co.StartRoot("job f-1", SpanContext{})
	h := rep.StartRoot("http", r1.Context())
	h.End()
	r1.End()
	r2 := co.StartRoot("job f-2", SpanContext{})
	r2.End()

	spans := append(co.Recent(0), rep.Recent(0)...)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var out chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	tids := map[string]int{}
	for _, ev := range out.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		pids[ev.PID] = true
		tids[ev.Name] = ev.TID
	}
	if len(pids) != 2 {
		t.Fatalf("want 2 process lanes, got %d", len(pids))
	}
	if tids["job f-1"] == tids["job f-2"] {
		t.Fatal("independent roots share a thread lane")
	}
	// The replica's http span has a remote (unretained-in-set) parent:
	// it roots its own lane rather than crashing the walk.
	if _, ok := tids["http"]; !ok {
		t.Fatal("remote-parented span missing from export")
	}
}

func TestWriteSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != `{"spans":[]}` {
		t.Fatalf("empty dump %q", got)
	}

	c := NewCollector("svc", 8)
	sp := c.StartRoot("s", SpanContext{})
	sp.End()
	buf.Reset()
	if err := WriteSpans(&buf, c.Recent(0)); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 1 || out.Spans[0].Name != "s" || out.Spans[0].TraceID == "" {
		t.Fatalf("span dump %+v", out.Spans)
	}
}

func TestConcurrentCollector(t *testing.T) {
	c := NewCollector("svc", 64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				sp := c.StartRoot("s", SpanContext{})
				ch := sp.StartChild("c")
				ch.SetAttr("i", FormatAttr(i))
				ch.End()
				sp.End()
				c.Recent(10)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Len() != 64 {
		t.Fatalf("Len=%d want full ring", c.Len())
	}
}

// TestRingReadBack: what Recent and TraceSpans return for each span is
// what its ActiveSpan recorded — ids, parent, name, service,
// attributes, start, end and duration — for a span with a remote
// parent, its children, a span whose attribute was set twice and one
// with no attributes.
func TestRingReadBack(t *testing.T) {
	c := NewCollector("svc", 16)
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	root := c.StartRoot("http POST /v1/jobs", remote)
	root.SetAttr("route", "POST /v1/jobs")
	job := root.StartChild("job j-1")
	job.SetAttr("state", "queued")
	job.SetAttr("tenant", "anonymous")
	job.SetAttr("state", "done") // replaces, keeps one key
	bare := job.StartChild("queue.wait")
	time.Sleep(time.Millisecond)
	bare.End()
	job.End()
	root.End()
	other := c.StartRoot("job j-2", SpanContext{})
	other.End()

	type want struct {
		a      *ActiveSpan
		name   string
		parent string
		attrs  map[string]string
	}
	wants := []want{
		{bare, "queue.wait", job.SpanID(), nil},
		{job, "job j-1", root.SpanID(), map[string]string{"state": "done", "tenant": "anonymous"}},
		{root, "http POST /v1/jobs", remote.SpanID, map[string]string{"route": "POST /v1/jobs"}},
		{other, "job j-2", "", nil},
	}
	check := func(from string, got []Span, wants []want) {
		t.Helper()
		if len(got) != len(wants) {
			t.Fatalf("%s: %d spans, want %d", from, len(got), len(wants))
		}
		for i, w := range wants {
			sp, a := got[i], w.a
			if sp.TraceID != a.TraceID() || sp.SpanID != a.SpanID() || sp.ParentID != w.parent {
				t.Errorf("%s[%d]: ids %s/%s/%s, want %s/%s/%s", from, i,
					sp.TraceID, sp.SpanID, sp.ParentID, a.TraceID(), a.SpanID(), w.parent)
			}
			if sp.Name != w.name || sp.Service != "svc" {
				t.Errorf("%s[%d]: name %q service %q, want %q svc", from, i, sp.Name, sp.Service, w.name)
			}
			if !reflect.DeepEqual(sp.Attrs, w.attrs) {
				t.Errorf("%s[%d] %s: attrs %v, want %v", from, i, sp.Name, sp.Attrs, w.attrs)
			}
			measured := a.EndTime().Sub(a.StartTime())
			if !sp.Start.Equal(a.StartTime()) || !sp.End.Equal(a.EndTime()) {
				t.Errorf("%s[%d] %s: %v..%v, want %v..%v", from, i, sp.Name, sp.Start, sp.End, a.StartTime(), a.EndTime())
			}
			if sp.Duration() != measured || sp.DurUS != measured.Microseconds() {
				t.Errorf("%s[%d] %s: duration %v (%d us), End measured %v", from, i, sp.Name, sp.Duration(), sp.DurUS, measured)
			}
		}
	}
	check("Recent", c.Recent(0), wants)
	check("TraceSpans", c.TraceSpans(remote.TraceID), wants[:3])
	check("TraceSpans", c.TraceSpans(other.TraceID()), wants[3:])
	if bare.EndTime().Sub(bare.StartTime()) < time.Millisecond {
		t.Errorf("queue.wait measured %v across a 1ms sleep", bare.EndTime().Sub(bare.StartTime()))
	}
	for _, id := range []string{"", strings.ToUpper(remote.TraceID), "00000000000000000000000000000000"} {
		if got := c.TraceSpans(id); len(got) != 0 {
			t.Errorf("TraceSpans(%q) matched %d spans", id, len(got))
		}
	}
}

// FuzzTraceparent: parsing never panics, an accepted header's context
// round-trips through Traceparent, and a root started from it reads
// back from the ring with the same trace id and the remote span as its
// parent.
func FuzzTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if again, ok := ParseTraceparent(sc.Traceparent()); !ok || again != sc {
			t.Fatalf("%q parsed to %+v, whose traceparent parses to %+v, %v", h, sc, again, ok)
		}
		c := NewCollector("fuzz", 1)
		sp := c.StartRoot("root", sc)
		sp.End()
		got := c.Recent(0)
		if len(got) != 1 || got[0].TraceID != sc.TraceID || got[0].ParentID != sc.SpanID {
			t.Fatalf("root under %+v reads back as %+v", sc, got)
		}
	})
}
