package serve

import (
	"fmt"
	"math"
	"sort"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

// The maintenance pass is the decision half of the closed loop. It reads the
// served-shape window and, per backend: (1) scores distribution drift against
// the training-time reference mix, and (2) when drift crosses the threshold
// and a RetrainFunc is installed, shadow-retrains the selector on the blended
// window and promotes the candidate through the normal Reload path — but only
// after two gates pass on a fixed holdout probe of the blend:
// compiled-vs-interpreted agreement, and mean regret no worse than the
// incumbent's. A rejected candidate is counted and logged and never touches
// live traffic. Neither step prices anything unless a retrain fires.

// RetrainFunc trains a candidate library for one device over a shape mix.
// It runs on the maintenance goroutine — never on a request path — so it may
// take as long as an offline training run. Returning an error abandons the
// attempt (counted in selectd_retrain_errors_total).
type RetrainFunc func(device string, model *sim.Model, shapes []gemm.Shape) (*core.Library, error)

// RetrainEvent records one shadow-retrain attempt for operators and tests.
type RetrainEvent struct {
	Device          string  `json:"device"`
	Drift           float64 `json:"drift"`
	Accepted        bool    `json:"accepted"`
	Reason          string  `json:"reason"`
	Generation      uint64  `json:"generation,omitempty"` // promoted generation (accepted only)
	Selector        string  `json:"selector,omitempty"`   // candidate's selector name
	CandidateRegret float64 `json:"candidate_regret"`     // mean holdout regret
	IncumbentRegret float64 `json:"incumbent_regret"`
}

// retrainEventCap bounds the in-memory event log; older events age out.
const retrainEventCap = 256

// RetrainEvents returns a copy of the recorded shadow-retrain attempts,
// oldest first.
func (s *Server) RetrainEvents() []RetrainEvent {
	s.eventsMu.Lock()
	defer s.eventsMu.Unlock()
	out := make([]RetrainEvent, len(s.events))
	copy(out, s.events)
	return out
}

func (s *Server) recordRetrain(ev RetrainEvent) {
	s.eventsMu.Lock()
	s.events = append(s.events, ev)
	if len(s.events) > retrainEventCap {
		s.events = s.events[len(s.events)-retrainEventCap:]
	}
	s.eventsMu.Unlock()
	if s.opts.OnRetrain != nil {
		s.opts.OnRetrain(ev)
	}
}

// driftScore reports the backend's latest PSI drift score (the
// selectd_drift_score gauge).
func (be *backend) driftScore() float64 {
	return math.Float64frombits(be.driftBits.Load())
}

// Maintain runs one synchronous maintenance pass over every backend: drift
// scoring and — when warranted — a shadow retrain
// including its gates and promotion. Production drives it from the background
// loop (Options.MaintainInterval); tests and operators may call it directly
// for a deterministic step with no wall-clock dependence.
func (s *Server) Maintain() {
	for _, be := range s.backends {
		s.maintain(be)
	}
}

func (s *Server) maintain(be *backend) {
	if be.window == nil {
		return
	}
	win := be.window.snapshot()
	if len(win) == 0 {
		return
	}
	ref := *be.driftRef.Load()
	score := driftPSI(ref, win)
	be.driftBits.Store(math.Float64bits(score))

	gen := be.gen.Load()
	if s.opts.Retrain != nil && score > s.opts.DriftThreshold && len(win) >= s.opts.RetrainMinWindow {
		// One retrain per backend at a time; overlapping maintenance passes
		// skip rather than queue — the next pass re-evaluates fresh drift.
		if be.retrainBusy.CompareAndSwap(false, true) {
			s.runRetrain(be, gen, ref, win, score)
			be.retrainBusy.Store(false)
		}
	}
}

// maintainLoop drives Maintain on a ticker until the server closes.
func (s *Server) maintainLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Maintain()
		}
	}
}

// blendShapes unions the reference mix's support with the window's distinct
// shapes, sorted so the retrain dataset is deterministic for a given mix.
func blendShapes(ref shapeMix, win []gemm.Shape) []gemm.Shape {
	seen := make(map[gemm.Shape]bool, len(ref)+len(win))
	out := make([]gemm.Shape, 0, len(ref)+len(win))
	for sh := range ref {
		if !seen[sh] {
			seen[sh] = true
			out = append(out, sh)
		}
	}
	for _, sh := range win {
		if !seen[sh] {
			seen[sh] = true
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.M != b.M {
			return a.M < b.M
		}
		if a.K != b.K {
			return a.K < b.K
		}
		return a.N < b.N
	})
	return out
}

// holdoutSlice carves every fourth shape of the blend into the fixed probe
// the gates score on. The probe is deliberately a subset of what the
// candidate trains on: a library selector's job is to compress the served
// mix into a lookup, so the gate asks "did retraining actually improve the
// shapes now being served" — both sides priced identically against the same
// universe, with the incumbent keeping its home-field advantage on every
// reference shape in the probe. Tiny blends (fewer than four shapes) probe
// everything.
func holdoutSlice(blend []gemm.Shape) []gemm.Shape {
	if len(blend) < 4 {
		return blend
	}
	holdout := make([]gemm.Shape, 0, len(blend)/4)
	for i := 3; i < len(blend); i += 4 {
		holdout = append(holdout, blend[i])
	}
	return holdout
}

// runRetrain executes one shadow-retrain attempt: train a candidate on the
// blended mix, then promote it through Reload only if both gates pass on the
// holdout probe. Failure of any step records the event and leaves live
// traffic untouched.
func (s *Server) runRetrain(be *backend, gen *generation, ref shapeMix, win []gemm.Shape, drift float64) {
	blend := blendShapes(ref, win)
	holdout := holdoutSlice(blend)

	cand, err := s.opts.Retrain(be.name, gen.model, blend)
	if err != nil || cand == nil || len(cand.Configs) == 0 {
		be.retrainErrors.Add(1)
		reason := "retrain returned an empty library"
		if err != nil {
			reason = fmt.Sprintf("retrain failed: %v", err)
		}
		s.recordRetrain(RetrainEvent{Device: be.name, Drift: drift, Reason: reason})
		return
	}

	// Gate 1: if the candidate's selector compiles, the compiled form must
	// agree with the interpreted one on every holdout and dataset shape —
	// the same seatbelt every generation swap wears, checked before the swap
	// instead of silently falling back after it.
	if choose, ok := cand.CompiledChooser(); ok {
		for _, sh := range holdout {
			if choose(sh) != cand.ChooseIndex(sh) {
				s.rejectRetrain(be, drift, cand, "compiled selector disagrees with interpreted on holdout", 0, 0)
				return
			}
		}
		for _, sh := range datasetShapes {
			if choose(sh) != cand.ChooseIndex(sh) {
				s.rejectRetrain(be, drift, cand, "compiled selector disagrees with interpreted on dataset shapes", 0, 0)
				return
			}
		}
	}

	// Gate 2: the candidate's mean regret on the holdout probe must not
	// exceed the incumbent's. Both sides are priced against the same universe
	// on the same shapes, so a candidate can only pass by actually serving
	// the blended mix at least as well as the incumbent does.
	candR := s.meanRegret(gen, cand.ChooseIndex, cand.Configs, holdout)
	incR := s.meanRegret(gen, gen.lib.ChooseIndex, gen.lib.Configs, holdout)
	if candR > incR+1e-12 {
		s.rejectRetrain(be, drift, cand,
			fmt.Sprintf("holdout regret %.4f worse than incumbent %.4f", candR, incR), candR, incR)
		return
	}

	id, err := s.Reload(be.name, cand, nil)
	if err != nil {
		be.retrainErrors.Add(1)
		s.recordRetrain(RetrainEvent{Device: be.name, Drift: drift, Selector: cand.SelectorName(),
			Reason: fmt.Sprintf("promotion reload failed: %v", err), CandidateRegret: candR, IncumbentRegret: incR})
		return
	}
	// The window that triggered the retrain becomes the new reference mix —
	// not the blend: the blend weights every union shape uniformly, which
	// matches neither past nor present traffic, so scoring drift against it
	// keeps the score high and re-fires an identical retrain every pass
	// (each promotion a needless generation swap). Against the window, drift
	// measures departure from the traffic the selector was just adapted to,
	// and the loop settles until the mix genuinely moves again.
	mix := mixOf(win)
	be.driftRef.Store(&mix)
	be.retrainPromoted.Add(1)
	s.recordRetrain(RetrainEvent{Device: be.name, Drift: drift, Accepted: true, Reason: "promoted",
		Generation: id, Selector: cand.SelectorName(), CandidateRegret: candR, IncumbentRegret: incR})
}

func (s *Server) rejectRetrain(be *backend, drift float64, cand *core.Library, reason string, candR, incR float64) {
	be.retrainRejected.Add(1)
	s.recordRetrain(RetrainEvent{Device: be.name, Drift: drift, Selector: cand.SelectorName(),
		Reason: reason, CandidateRegret: candR, IncumbentRegret: incR})
}
