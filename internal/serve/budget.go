package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// backend is one device's serving state. The swappable artifact state
// (library, chooser, rendered strings, fallback) lives in the generation
// behind the atomic pointer; everything else — admission budget, latency
// EWMA, shed and degradation counters — describes the device itself and
// survives reloads.
type backend struct {
	name string
	gen  atomic.Pointer[generation]

	// Admission budget: a token channel of budgetCap slots. One token per
	// batch request; exhaustion degrades to the fallback config instead of
	// queueing or erroring.
	budget    chan struct{}
	budgetCap int

	inflight atomic.Int64
	shed     atomic.Uint64
	degraded atomic.Uint64 // decisions answered with the fallback config (reason budget)

	// latencyEWMA tracks full-service batch latency (float64 nanosecond
	// bits); the load-aware shed threshold compares against it.
	latencyEWMA atomic.Uint64

	// Closed-loop state (regret.go, window.go, retrain.go). Like the budget
	// and EWMAs it describes the device's live traffic, not the artifact, so
	// it survives reloads. decisions counts every served decision; sampled +
	// unsampled partition it exactly (the accounting invariant the property
	// tests pin). regretDropped counts samples lost to a full measurement
	// queue, so sampled == measured + queued + dropped at all times.
	decisions     atomic.Uint64
	sampled       atomic.Uint64
	unsampled     atomic.Uint64
	regretDropped atomic.Uint64

	regretHist         *valueHistogram // sampled full-service decision regret
	regretDegradedHist *valueHistogram // sampled degraded-path (fallback) regret

	window    *shapeWindow             // served-shape sliding window; nil disables the loop
	driftRef  atomic.Pointer[shapeMix] // reference mix drift is scored against
	driftBits atomic.Uint64            // latest PSI score, float64 bits

	retrainBusy     atomic.Bool // one shadow retrain per backend at a time
	retrainPromoted atomic.Uint64
	retrainRejected atomic.Uint64
	retrainErrors   atomic.Uint64
	fallbackUpdates atomic.Uint64 // online fallback-config swaps

	// reloadCall coalesces concurrent POST /v1/reload requests for this
	// backend: overlapping requests ride the leader's source read + swap and
	// answer with the same generation, so a reload storm (overlapping
	// operator calls, a misfiring deploy hook) builds one generation instead
	// of racing to build N and discarding N-1.
	reloadMu   sync.Mutex
	reloadCall *reloadCall
}

// reloadCall is one in-flight coalesced reload: the leader populates the
// result fields and closes done; followers block on done and read them.
type reloadCall struct {
	done   chan struct{}
	joined atomic.Int32 // requests riding this flight, leader included
	genID  uint64
	name   string // selector name of the library that was swapped in
	cfgs   int    // its configuration count
	err    error
}

// joinReload returns the backend's in-flight reload call, creating it (and
// electing the caller leader) when none is running. The leader must call
// finishReload exactly once.
func (be *backend) joinReload() (c *reloadCall, leader bool) {
	be.reloadMu.Lock()
	defer be.reloadMu.Unlock()
	if c := be.reloadCall; c != nil {
		c.joined.Add(1)
		return c, false
	}
	c = &reloadCall{done: make(chan struct{})}
	c.joined.Add(1)
	be.reloadCall = c
	return c, true
}

// finishReload publishes the leader's result to every coalesced follower and
// opens the door for the next reload. Requests that arrive after this point
// start a fresh reload — only overlapping requests coalesce.
func (be *backend) finishReload(c *reloadCall) {
	be.reloadMu.Lock()
	be.reloadCall = nil
	be.reloadMu.Unlock()
	close(c.done)
}

// acquire takes one budget token, reporting false when the budget is
// exhausted. The returned release must be called exactly once; tokens are
// conserved by construction (channel send/receive pairs).
func (be *backend) acquire() (release func(), ok bool) {
	select {
	case be.budget <- struct{}{}:
		return func() { <-be.budget }, true
	default:
		return nil, false
	}
}

// budgetFree reports the tokens currently available.
func (be *backend) budgetFree() int { return be.budgetCap - len(be.budget) }

// overloaded reports whether the backend's full-service latency EWMA exceeds
// the shed threshold (0 disables shedding).
func (be *backend) overloaded(threshold time.Duration) bool {
	return threshold > 0 && ewmaValue(&be.latencyEWMA) > threshold
}

// ewmaAlpha is the smoothing factor of the latency EWMAs: recent requests
// dominate within ~5 observations, so the shed threshold reacts to a load
// spike in a handful of requests rather than minutes of history.
const ewmaAlpha = 0.2

// ewmaObserve folds one duration into an atomically-stored EWMA (float64
// bits; zero means "no observations yet" and the first sample seeds it).
func ewmaObserve(a *atomic.Uint64, d time.Duration) {
	for {
		old := a.Load()
		v := float64(d.Nanoseconds())
		if old != 0 {
			v = ewmaAlpha*v + (1-ewmaAlpha)*math.Float64frombits(old)
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func ewmaValue(a *atomic.Uint64) time.Duration {
	b := a.Load()
	if b == 0 {
		return 0
	}
	return time.Duration(math.Float64frombits(b))
}

// reasonBudget labels a decision answered with the fallback config because
// its batch found the backend's admission budget exhausted — the one degrade
// reason, since nothing on the decision path itself can block or fail.
const reasonBudget = "budget"

// BudgetsQuiesced reports whether every backend's admission budget is fully
// replenished and its in-flight gauge has returned to zero — true once all
// traffic has drained. Cross-package chaos harnesses poll it to assert token
// conservation without reaching into admission internals.
func (s *Server) BudgetsQuiesced() bool {
	for _, be := range s.backends {
		if be.budgetFree() != be.budgetCap || be.inflight.Load() != 0 {
			return false
		}
	}
	return true
}
