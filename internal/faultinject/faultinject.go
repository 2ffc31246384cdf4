// Package faultinject is a deterministic, seed-driven fault injector for the
// serving runtime's chaos suite. It wraps the HTTP layer — latency spikes,
// injected 503s and mid-request context cancellation — so tests can drive a
// server or a fleet through overload, failure and reload races and assert
// the resilience invariants: no panics, budgets conserved, responses
// internally consistent, no 5xx past the cluster router.
//
// Determinism: every injection decision is a pure function of (seed, fault
// kind, event index), where the event index is a per-injector atomic
// counter. Two sequential runs with the same seed see the same fault
// schedule; under concurrency the schedule is fixed but its interleaving is
// the scheduler's — exactly the nondeterminism a chaos suite wants, while
// failures still reproduce by seed.
package faultinject

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"kernelselect/internal/xrand"
)

// Options set the per-request fault probabilities. Zero values inject nothing.
type Options struct {
	Error        float64       // probability the middleware answers 503 (with Retry-After) before the handler runs
	Spike        float64       // probability the middleware delays a request before the handler runs
	SpikeMax     time.Duration // spike duration upper bound; default 1ms
	Cancel       float64       // probability the HTTP middleware cancels the request mid-flight
	CancelMax    time.Duration // cancel delay upper bound; default 500µs
	RetrainError float64       // probability a FailRetrain poll reports failure
}

func (o Options) withDefaults() Options {
	if o.SpikeMax <= 0 {
		o.SpikeMax = time.Millisecond
	}
	if o.CancelMax <= 0 {
		o.CancelMax = 500 * time.Microsecond
	}
	return o
}

// Stats counts the faults actually injected.
type Stats struct {
	Spikes       uint64
	Errors       uint64
	Cancels      uint64
	RetrainFails uint64
}

// fault kinds salt the hash so the spike/error/cancel streams are
// independent even when they share event indices.
const (
	kindSpike uint64 = iota + 1
	kindError
	kindCancel
	kindRetrain
)

// Injector draws a deterministic fault schedule from a seed.
type Injector struct {
	seed     uint64
	opts     Options
	events   atomic.Uint64
	spikes   atomic.Uint64
	errs     atomic.Uint64
	cancels  atomic.Uint64
	retrains atomic.Uint64
}

// New returns an injector whose schedule is fully determined by seed.
func New(seed uint64, opts Options) *Injector {
	return &Injector{seed: seed, opts: opts.withDefaults()}
}

// roll advances the event counter and returns a uniform [0,1) draw plus the
// raw hash (for deriving deterministic magnitudes) for the given fault kind.
func (in *Injector) roll(kind uint64) (float64, uint64) {
	idx := in.events.Add(1)
	h := xrand.Hash64(in.seed, kind, idx)
	return float64(h>>11) / (1 << 53), h
}

// Stats reports how many faults have been injected so far.
func (in *Injector) Stats() Stats {
	return Stats{
		Spikes:       in.spikes.Load(),
		Errors:       in.errs.Load(),
		Cancels:      in.cancels.Load(),
		RetrainFails: in.retrains.Load(),
	}
}

// FailRetrain reports whether the current shadow-retrain attempt should fail,
// per the seed's schedule. The chaos suite wires it into a RetrainFunc so the
// retrain-error path (counted, never promoted, never serving) is exercised
// deterministically alongside the request faults.
func (in *Injector) FailRetrain() bool {
	if f, _ := in.roll(kindRetrain); f < in.opts.RetrainError {
		in.retrains.Add(1)
		return true
	}
	return false
}

// Middleware wraps an HTTP handler with the request faults, drawn in a fixed
// order per request. A spike delays the request, cut short if its context
// dies first. An error answers 503 with Retry-After before the handler runs,
// as a saturated or failing server would. A cancellation hands the handler a
// context that is cancelled a deterministic delay into the request,
// simulating a client that hangs up mid-flight.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f, h := in.roll(kindSpike); f < in.opts.Spike {
			in.spikes.Add(1)
			t := time.NewTimer(time.Duration(h%uint64(in.opts.SpikeMax)) + 1)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
			}
		}
		if f, _ := in.roll(kindError); f < in.opts.Error {
			in.errs.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"faultinject: injected failure"}` + "\n"))
			return
		}
		if f, h := in.roll(kindCancel); f < in.opts.Cancel {
			in.cancels.Add(1)
			ctx, cancel := context.WithCancel(r.Context())
			defer cancel()
			delay := time.Duration(h % uint64(in.opts.CancelMax))
			t := time.AfterFunc(delay, cancel)
			defer t.Stop()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}
