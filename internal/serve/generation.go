package serve

import (
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

// generation is one immutable epoch of a backend's serving state: the
// library, its chooser and rendered strings, and the precomputed fallback
// decision served under degradation. Reload builds a fresh generation and
// swaps the backend's atomic pointer; requests that loaded the old pointer
// keep serving against it until they finish, so a response's config always
// belongs to the generation stamped on it.
type generation struct {
	id     uint64
	device string
	lib    *core.Library
	model  *sim.Model

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

	// configs and kernelIDs are each library configuration's name and
	// kernel ID, indexed like lib.Configs and rendered once here so a
	// decision copies strings instead of formatting them.
	configs   []string
	kernelIDs []string

	// universe is the vectorized pricing pass over the regret config
	// universe (gemm.AllConfigs by default), built only when the closed loop
	// is on. The regret worker and the retrain gates price against it; it
	// always goes through the analytical model, the reference optimum the
	// offline pipeline uses. uniPool recycles the universe-sized GFLOPS row.
	universe *sim.BatchPricer
	uniPool  sync.Pool

	// configsJSON is the /v1/configs response body, rendered once per
	// generation (the response depends on nothing else). infoLine is the
	// generation's selectd_info metric line, likewise static per epoch.
	configsJSON []byte
	infoLine    string
}

// newGeneration allocates the next epoch for a device. The fallback decision,
// compiled chooser, config strings and /v1/configs body are computed here —
// once per reload, never per request — so the hot path does no per-request
// setup work.
func (s *Server) newGeneration(device string, lib *core.Library, model *sim.Model) *generation {
	id := s.genCounter.Add(1)
	fb := fallbackDecision(device, lib, model, s.fallbackShapes)
	fb.Generation = id
	g := &generation{
		id:        id,
		device:    device,
		lib:       lib,
		model:     model,
		configs:   make([]string, len(lib.Configs)),
		kernelIDs: make([]string, len(lib.Configs)),
	}
	for i, c := range lib.Configs {
		g.configs[i], g.kernelIDs[i] = c.String(), c.KernelID()
	}
	g.fb.Store(&fb)
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
		Configs:    g.configs,
		KernelIDs:  g.kernelIDs,
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
// only one.
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
// request admitted after Reload returns sees the new library and a freshly
// computed fallback config. The backend's budget and latency EWMA survive the
// swap: they describe the device, not the artifact.
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
	gen := s.newGeneration(be.name, lib, model)
	be.gen.Store(gen)
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
