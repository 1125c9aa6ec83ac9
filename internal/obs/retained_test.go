//go:build !race

package obs

// The byte bound on a full span ring. It is left out of -race builds,
// whose shadow memory and instrumented allocations would measure the
// detector rather than the ring.

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
)

// TestRetainedSpanBytes: a full ring of a service's request and job
// spans (an "http POST /v1/jobs" root with one attribute and a
// "job j-N" child with four) keeps at most 220 bytes of live heap a
// span. Spans kept as public Spans, with hex ids, two times and an
// attribute map each, took about 533.
func TestRetainedSpanBytes(t *testing.T) {
	const method, path = "POST", "/v1/jobs"
	c := NewCollector("clusterd", DefaultRingSize)
	before := heapAfterGC()
	for i := 0; c.Len() < DefaultRingSize; i++ {
		root := c.StartRoot("http "+method+" "+path, SpanContext{})
		id := fmt.Sprintf("j-%08d", i)
		job := root.StartChild("job " + id)
		job.SetAttr("job", id)
		job.SetAttr("tenant", "anonymous")
		job.SetAttr("kernel", "rawcaudio")
		job.SetAttr("state", "done")
		job.End()
		root.SetAttr("status", strconv.Itoa(202))
		root.End()
	}
	after := heapAfterGC()
	perSpan := (int64(after) - int64(before)) / int64(c.Len())
	runtime.KeepAlive(c)
	t.Logf("%d retained spans: %d bytes of live heap each", c.Len(), perSpan)
	if perSpan > 220 {
		t.Errorf("a retained span keeps %d bytes, want at most 220", perSpan)
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
