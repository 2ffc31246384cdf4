package serve

import (
	"runtime/debug"
	"testing"
)

// TestSetHeapBudget checks both halves of the budget's contract: an operator's
// GOGC or GOMEMLIMIT leaves the runtime settings alone, and with neither set
// the collector turns proportional GC off and limits memory to HeapBudget.
func TestSetHeapBudget(t *testing.T) {
	const sentinelPct, sentinelLimit = 123, int64(1 << 40)
	origPct := debug.SetGCPercent(sentinelPct)
	origLimit := debug.SetMemoryLimit(sentinelLimit)
	t.Cleanup(func() {
		debug.SetGCPercent(origPct)
		debug.SetMemoryLimit(origLimit)
	})
	current := func() (int, int64) {
		pct := debug.SetGCPercent(sentinelPct)
		debug.SetGCPercent(pct)
		return pct, debug.SetMemoryLimit(-1) // a negative limit only reads
	}

	for _, env := range []struct{ gogc, gomemlimit string }{{"200", ""}, {"", "1GiB"}, {"off", "512MiB"}} {
		t.Setenv("GOGC", env.gogc)
		t.Setenv("GOMEMLIMIT", env.gomemlimit)
		debug.SetGCPercent(sentinelPct)
		debug.SetMemoryLimit(sentinelLimit)
		SetHeapBudget()
		if pct, limit := current(); pct != sentinelPct || limit != sentinelLimit {
			t.Errorf("GOGC=%q GOMEMLIMIT=%q: budget changed GC percent to %d and limit to %d",
				env.gogc, env.gomemlimit, pct, limit)
		}
	}

	t.Setenv("GOGC", "")
	t.Setenv("GOMEMLIMIT", "")
	SetHeapBudget()
	if pct, limit := current(); pct != -1 || limit != HeapBudget {
		t.Errorf("no GOGC or GOMEMLIMIT: GC percent %d and limit %d, want -1 and %d", pct, limit, HeapBudget)
	}
}
