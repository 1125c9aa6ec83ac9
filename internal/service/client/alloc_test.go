//go:build !race

package client

// The allocation bound is left out of -race builds: there sync.Pool
// drops pooled items at random, so net/http and encoding/json allocate
// buffers they would otherwise reuse, and the count no longer measures
// this code.

import (
	"context"
	"runtime"
	"testing"

	"clustervp/internal/service"
)

// TestRunMemoAllocBound: a memo-hit Run allocates, client and server
// together, under 64 KiB; no line buffer is sized for the largest
// possible event.
func TestRunMemoAllocBound(t *testing.T) {
	c, req := warmMemoServer(t)
	ctx := context.Background()
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		st, err := c.Run(ctx, req)
		if err != nil || st.State != service.StateDone {
			t.Fatalf("memo run %d: state=%q err=%v", i, st.State, err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d bytes allocated per memo-hit Run", perCall)
	if perCall >= 64<<10 {
		t.Errorf("a memo-hit Run allocates %d bytes, want under 64 KiB", perCall)
	}
}
