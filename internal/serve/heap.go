package serve

import (
	"os"
	"runtime/debug"
)

// HeapBudget is the Go memory a serving binary lets accumulate before it
// collects. A daemon's live heap is about 1 MB and each select leaves
// ~2.5 KB of net/http garbage, so the default GOGC=100 pacer would collect
// about every thousand selects. The largest live heap a serving binary
// reaches is a -retrain pass over a full 4096-shape window (~45 MB), and
// 128 MiB lets even that pass finish without a collection.
const HeapBudget = 128 << 20

// SetHeapBudget turns the proportional GC off and sets HeapBudget as the
// memory limit, so the process collects only when its Go memory reaches the
// budget. If GOGC or GOMEMLIMIT is set in the environment it changes
// nothing: the operator's setting wins. The serving binaries call it first
// thing in main.
func SetHeapBudget() {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return
	}
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(HeapBudget)
}
