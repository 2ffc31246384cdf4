package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"kernelselect/internal/core"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

// Pricer prices one configuration on one shape. The production
// implementation adapts *sim.Model (which cannot fail); the indirection
// exists so tests can wrap pricing with fault injection (latency spikes,
// errors, cancellations) and so a future remote pricing service has a seam.
type Pricer interface {
	PriceGFLOPS(ctx context.Context, cfg gemm.Config, s gemm.Shape) (float64, error)
}

// modelPricer adapts the analytical device model to the Pricer seam.
type modelPricer struct{ m *sim.Model }

func (p modelPricer) PriceGFLOPS(_ context.Context, cfg gemm.Config, s gemm.Shape) (float64, error) {
	return p.m.GFLOPS(cfg, s), nil
}

// generation is one immutable epoch of a backend's serving state: the
// library, the pricer that prices its decisions, a decision cache private to
// this epoch, and the precomputed fallback decision served under
// degradation. Reload builds a fresh generation and swaps the backend's
// atomic pointer; requests that loaded the old pointer keep serving against
// it until they finish, so a response's config always belongs to the
// generation stamped on it, and a stale generation's cache entries can never
// leak into the new epoch (the new generation starts with an empty cache).
type generation struct {
	id     uint64
	device string
	lib    *core.Library
	model  *sim.Model
	pricer Pricer
	cache  *decisionCache

	// fb holds the degraded-mode fallback template (Shape/DegradedReason
	// filled per request). It is a pointer swapped atomically because the
	// maintenance pass relearns the fallback config online from the served
	// shape window (retrain.go) while degraded requests read it.
	fb atomic.Pointer[Decision]

	// choose maps a shape to the library's configuration index. When the
	// library's selector compiles (core.CompiledChooser) and the compiled
	// form is verified identical to the interpreted one over the fallback
	// shape set, choose is the allocation-free compiled chooser and compiled
	// is true; otherwise it is lib.ChooseIndex. Either way it returns the
	// exact same index — compilation is a speedup, never a behaviour change.
	choose   func(gemm.Shape) int
	compiled bool

	// batch is the vectorized pricing pass over the library's configuration
	// list, non-nil only when pricing goes through the analytical model
	// (modelPricer). Custom pricers — fault injection, measured pricing —
	// keep the per-configuration loop so their per-call seams (latency,
	// errors, cancellation points) are preserved. rowPool recycles the
	// per-miss GFLOPS row so the batch miss path allocates nothing.
	batch   *sim.BatchPricer
	rowPool sync.Pool

	// universe is the vectorized pricing pass over the regret config
	// universe (gemm.AllConfigs by default), built only when the closed loop
	// is on. The regret worker and the retrain gates price against it; it
	// always goes through the analytical model — regret compares to the
	// reference optimum, not to an injected or measured pricer. uniPool
	// recycles the universe-sized GFLOPS row.
	universe *sim.BatchPricer
	uniPool  sync.Pool

	// configsJSON is the /v1/configs response body, rendered once per
	// generation (the response depends on nothing else). infoLine is the
	// generation's selectd_info metric line, likewise static per epoch.
	configsJSON []byte
	infoLine    string
}

// newGeneration allocates the next epoch for a device. The fallback decision,
// compiled chooser and /v1/configs body are computed here — once per reload,
// never per request — so the hot path does no per-request setup work.
func (s *Server) newGeneration(device string, lib *core.Library, model *sim.Model, pricer Pricer) *generation {
	id := s.genCounter.Add(1)
	fb := fallbackDecision(device, lib, model, s.fallbackShapes)
	fb.Generation = id
	g := &generation{
		id:     id,
		device: device,
		lib:    lib,
		model:  model,
		pricer: pricer,
		cache:  newDecisionCache(s.opts.CacheSize, cacheShards),
	}
	g.fb.Store(&fb)
	if _, ok := pricer.(modelPricer); ok {
		g.batch = model.Batch(lib.Configs)
		g.rowPool.New = func() any { r := make([]float64, len(lib.Configs)); return &r }
	}
	if len(s.regretUniverse) > 0 {
		g.universe = model.Batch(s.regretUniverse)
		n := len(s.regretUniverse)
		g.uniPool.New = func() any { r := make([]float64, n); return &r }
	}
	if lib.Unified() {
		g.choose, g.compiled = compileUnifiedChooser(lib, model, s.fallbackShapes)
	} else {
		g.choose, g.compiled = compileChooser(lib, s.fallbackShapes)
	}
	g.configsJSON = renderConfigs(g)
	g.infoLine = fmt.Sprintf("selectd_info{selector=%q,device=%q} 1\n", lib.SelectorName(), device)
	return g
}

// compileChooser returns the library's compiled chooser after verifying it
// agrees with the interpreted selector on every verification shape, or the
// interpreted ChooseIndex when no compiled form exists. The verification
// sweep is the serving-side seatbelt on the compiler's byte-identical
// guarantee: a disagreement (which the core tests make unreachable) falls
// back to the interpreted path instead of serving wrong kernels.
func compileChooser(lib *core.Library, verify []gemm.Shape) (func(gemm.Shape) int, bool) {
	choose, ok := lib.CompiledChooser()
	if !ok {
		return lib.ChooseIndex, false
	}
	for _, sh := range verify {
		if choose(sh) != lib.ChooseIndex(sh) {
			return lib.ChooseIndex, false
		}
	}
	return choose, true
}

// compileUnifiedChooser is compileChooser for a unified (device-feature-
// augmented) library: the backend's device feature vector is appended to
// every shape at dispatch, so one artifact answers every device. The
// compiled form (device features baked into stack scratch) is used only
// after it agrees with the interpreted unified chooser on every verification
// shape. A width mismatch is unreachable here — NewMulti and Reload validate
// the pairing before building a generation — but degrades to the same
// first-configuration clamp the core library applies to misuse.
func compileUnifiedChooser(lib *core.Library, model *sim.Model, verify []gemm.Shape) (func(gemm.Shape) int, bool) {
	dev := model.Dev.Features()
	interp, err := lib.UnifiedChooser(dev)
	if err != nil {
		return func(gemm.Shape) int { return 0 }, false
	}
	compiled, ok := lib.UnifiedCompiledChooser(dev)
	if !ok {
		return interp, false
	}
	for _, sh := range verify {
		if compiled(sh) != interp(sh) {
			return interp, false
		}
	}
	return compiled, true
}

// renderConfigs renders the generation's /v1/configs body, newline-terminated
// to match the json.Encoder framing the endpoint used to produce.
func renderConfigs(g *generation) []byte {
	resp := configsResponse{
		Device:     g.device,
		Selector:   g.lib.SelectorName(),
		Generation: g.id,
		Count:      len(g.lib.Configs),
	}
	for _, c := range g.lib.Configs {
		resp.Configs = append(resp.Configs, c.String())
		resp.KernelIDs = append(resp.KernelIDs, c.KernelID())
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return []byte("{}\n")
	}
	return append(b, '\n')
}

// fallbackDecision precomputes the answer served under degradation: the
// library configuration with the best geometric-mean modelled GFLOPS across
// the fallback shape set (the paper's dataset by default). The geomean is
// the same aggregate the offline pipeline ranks configurations by, so the
// fallback is the single config you would ship if the library could hold
// only one. Degraded responses carry no per-shape prediction (that would
// cost the pricing pass degradation exists to avoid), so the predicted
// fields stay zero.
func fallbackDecision(device string, lib *core.Library, model *sim.Model, shapes []gemm.Shape) Decision {
	idx := bestGeomeanIndex(model, lib.Configs, shapes)
	cfg := lib.Configs[idx]
	return Decision{
		Device:   device,
		Config:   cfg.String(),
		Index:    idx,
		KernelID: cfg.KernelID(),
		Degraded: true,
	}
}

// bestGeomeanIndex returns the index of the configuration with the highest
// geometric-mean GFLOPS over shapes; ties resolve to the lowest index so the
// result is deterministic.
func bestGeomeanIndex(model *sim.Model, cfgs []gemm.Config, shapes []gemm.Shape) int {
	if len(shapes) == 0 {
		return 0
	}
	// One batch pass per shape accumulates every configuration's log sum in
	// shape order — the same per-config addition sequence as the per-config
	// loop this replaces, so the winner is unchanged.
	bp := model.Batch(cfgs)
	sums := make([]float64, len(cfgs))
	var row []sim.Breakdown
	for _, s := range shapes {
		row = bp.PriceInto(row[:0], s)
		for i := range sums {
			sums[i] += math.Log(row[i].GFLOPS)
		}
	}
	best, bestScore := 0, math.Inf(-1)
	for i, sum := range sums {
		if score := sum / float64(len(shapes)); score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// compute runs the selector and prices every library configuration on the
// shape, so the decision carries its predicted normalized performance — the
// paper's Table-I quantity, per request. Model-priced generations take the
// vectorized batch pass (one struct-of-arrays sweep, no per-config calls);
// custom pricers keep the per-configuration loop, where the deadline is
// checked between configurations — pricing the whole library is the
// handler's only unbounded work, so an expired context aborts here rather
// than running to completion after the client has given up. A pricing error
// aborts the pass; the caller maps it to a degraded fallback response and
// feeds the circuit breaker.
func (g *generation) compute(ctx context.Context, shape gemm.Shape) (Decision, error) {
	idx := g.choose(shape)
	cfgs := g.lib.Configs
	best, chosen := 0.0, 0.0
	if g.batch != nil {
		// The batch pass prices the library in tens of microseconds, so one
		// deadline check up front suffices.
		if err := ctx.Err(); err != nil {
			return Decision{}, err
		}
		rp := g.rowPool.Get().(*[]float64)
		row := *rp
		g.batch.PriceRow(row, shape)
		for i, v := range row {
			if v > best {
				best = v
			}
			if i == idx {
				chosen = v
			}
		}
		g.rowPool.Put(rp)
	} else {
		for i, cfg := range cfgs {
			if err := ctx.Err(); err != nil {
				return Decision{}, err
			}
			v, err := g.pricer.PriceGFLOPS(ctx, cfg, shape)
			if err != nil {
				return Decision{}, err
			}
			if v > best {
				best = v
			}
			if i == idx {
				chosen = v
			}
		}
	}
	norm := 0.0
	if best > 0 {
		norm = chosen / best
	}
	return Decision{
		Device:          g.device,
		Shape:           shape.String(),
		Config:          cfgs[idx].String(),
		Index:           idx,
		KernelID:        cfgs[idx].KernelID(),
		PredictedGFLOPS: chosen,
		PredictedNorm:   norm,
		Generation:      g.id,
	}, nil
}

// ReloadSource produces a fresh library (and optionally a fresh model; nil
// keeps the current one) for a device. selectd installs one that re-reads
// the -library artifact path, or retrains in-process, so POST /v1/reload and
// SIGHUP pick up new artifacts without a restart.
type ReloadSource func(device string) (*core.Library, *sim.Model, error)

// SetReloadSource installs the callback POST /v1/reload uses to obtain a new
// library. Install it before serving traffic; without one the endpoint
// reports 503.
func (s *Server) SetReloadSource(f ReloadSource) { s.reloadSource = f }

// Reload atomically swaps the named backend (empty = default) onto a new
// library, and optionally a new device model (nil keeps the current one).
// In-flight requests finish against the generation they loaded; every
// request admitted after Reload returns sees the new library. The new
// generation starts with an empty decision cache — decisions priced against
// the old library are unreachable the moment the swap lands — and a freshly
// computed fallback config. The backend's budget, latency EWMA and circuit
// breaker survive the swap: they describe the device, not the artifact.
// Returns the new generation id.
func (s *Server) Reload(device string, lib *core.Library, model *sim.Model) (uint64, error) {
	be, err := s.backend(device)
	if err != nil {
		return 0, err
	}
	if lib == nil {
		return 0, errors.New("serve: reload with a nil library")
	}
	cur := be.gen.Load()
	if model == nil {
		model = cur.model
	}
	// A backend's dispatch kind is fixed at construction: swapping a unified
	// backend onto a shape-only library (or the reverse) would silently change
	// what the selector consumes. This is exactly what a shadow retrain would
	// do if its shape-trained candidate reached a unified backend — the error
	// surfaces in the RetrainEvent instead of being served.
	if lib.Unified() != cur.lib.Unified() {
		kind := func(u bool) string {
			if u {
				return "unified"
			}
			return "shape-only"
		}
		return 0, fmt.Errorf("serve: reload for %q: new library is %s but the backend serves a %s library",
			be.name, kind(lib.Unified()), kind(cur.lib.Unified()))
	}
	if lib.Unified() {
		if _, err := lib.UnifiedChooser(model.Dev.Features()); err != nil {
			return 0, fmt.Errorf("serve: reload for %q: %v", be.name, err)
		}
	}
	pricer := be.custom
	if pricer == nil {
		pricer = modelPricer{model}
	}
	gen := s.newGeneration(be.name, lib, model, pricer)
	be.gen.Store(gen)
	// Fold the displaced generation's cache counters into the backend's
	// cumulative bases so selectd_cache_{hits,misses}_total stay monotonic
	// across the swap. In-flight requests still finishing against the old
	// generation may bump its counters after this snapshot; those few
	// straggler counts are dropped rather than risking a decrease.
	hits, misses := cur.cache.stats()
	be.cacheHitsBase.Add(hits)
	be.cacheMissesBase.Add(misses)
	// A fresh generation's fallback starts from the static shape set; when
	// the window has already observed enough live traffic, relearn it from
	// the observed distribution immediately rather than waiting a
	// maintenance tick.
	if be.window != nil {
		if win := be.window.snapshot(); len(win) >= minFallbackWindow {
			s.learnFallback(be, gen, win)
		}
	}
	return gen.id, nil
}
