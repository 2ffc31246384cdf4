package serve

import (
	"testing"
	"time"
)

func TestHistogramBucketsAndSum(t *testing.T) {
	h := newHistogram()
	h.observe(3 * time.Microsecond)  // below first bound (5e-6)
	h.observe(30 * time.Microsecond) // in (2.5e-5, 5e-5]
	h.observe(2 * time.Second)       // beyond the last bound → +Inf bucket
	if got := h.count.Load(); got != 3 {
		t.Fatalf("count %d, want 3", got)
	}
	if got := h.buckets[0].Load(); got != 1 {
		t.Fatalf("first bucket %d, want 1", got)
	}
	if got := h.buckets[len(latencyBuckets)].Load(); got != 1 {
		t.Fatalf("+Inf bucket %d, want 1", got)
	}
	wantSum := (3*time.Microsecond + 30*time.Microsecond + 2*time.Second).Nanoseconds()
	if got := h.sumNano.Load(); got != wantSum {
		t.Fatalf("sum %d ns, want %d", got, wantSum)
	}
}
