package cluster

import (
	"bytes"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// When the hedge wins, the losing primary's attempt is cancelled through its
// own context — the router does not let an abandoned arm keep burning replica
// budget — and a cancelled arm is routing disinterest, not replica sickness,
// so the slow primary stays up.
func TestHedgeWinnerCancelsLoser(t *testing.T) {
	var slowIdx atomic.Int32
	slowIdx.Store(-1)
	cancelled := make(chan struct{}, 4)
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if int32(i) == slowIdx.Load() && r.URL.Path == "/v1/select" {
				// Drain the body first: the server only watches for client
				// disconnect (and cancels r.Context) once the request body is
				// consumed.
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				select {
				case <-r.Context().Done():
					cancelled <- struct{}{}
					return
				case <-time.After(5 * time.Second):
					// Never cancelled: fall through and serve; the main
					// goroutine's wait on the channel fails the test.
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	f := newTestFleet(t, 2, Options{HedgeDelay: 5 * time.Millisecond, Retries: 2}, wrap)
	shape := shapeWithPrimary(t, f.router, "", 0)
	slowIdx.Store(0)

	status, d := routerSelect(t, f.rts.URL, shape)
	if status != http.StatusOK || d.Degraded {
		t.Fatalf("hedged request: status %d decision %+v", status, d)
	}
	if wins := f.router.metrics.hedgeWins.Load(); wins != 1 {
		t.Fatalf("hedge wins %d, want 1", wins)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("slow primary never observed its context cancelled — the losing arm was not abandoned")
	}
	if state := f.router.health.state(replicaName(0)); state != StateUp {
		t.Errorf("slow primary marked %q after its arm was cancelled, want up", state)
	}
	if errs := f.router.metrics.repErrors.Load(); errs != 0 {
		t.Errorf("%d replica errors recorded for a cancelled hedge loser, want 0", errs)
	}
}
