package serve

import (
	"sync"
	"sync/atomic"
)

// backend is one device's serving state. The swappable artifact state
// (library, chooser, rendered strings) lives in the generation behind the
// atomic pointer; everything else describes the device's live traffic and
// survives reloads.
type backend struct {
	name string
	gen  atomic.Pointer[generation]

	// Closed-loop state (regret.go, window.go, retrain.go). decisions counts
	// every served decision; sampled + unsampled partition it exactly (the
	// accounting invariant the property tests pin). regretDropped counts
	// samples lost to a full measurement queue, so sampled == measured +
	// queued + dropped at all times.
	decisions     atomic.Uint64
	sampled       atomic.Uint64
	unsampled     atomic.Uint64
	regretDropped atomic.Uint64

	regretHist *valueHistogram // sampled decision regret

	window    *shapeWindow             // served-shape sliding window; nil disables the loop
	driftRef  atomic.Pointer[shapeMix] // reference mix drift is scored against
	driftBits atomic.Uint64            // latest PSI score, float64 bits

	retrainBusy     atomic.Bool // one shadow retrain per backend at a time
	retrainPromoted atomic.Uint64
	retrainRejected atomic.Uint64
	retrainErrors   atomic.Uint64

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
