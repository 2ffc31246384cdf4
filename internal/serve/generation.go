package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"kernelselect/internal/core"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

// datasetShapes is the paper's dataset shape set: every compiled selector is
// verified against its interpreted form on it before serving, and it is the
// default reference mix drift is scored against (Options.TrainShapes).
var datasetShapes, _ = workload.DatasetShapes()

// generation is one immutable epoch of a backend's serving state: the
// library, its chooser and rendered strings. Reload builds a fresh generation
// and swaps the backend's atomic pointer; requests that loaded the old
// pointer keep serving against it until they finish, so a response's config
// always belongs to the generation stamped on it.
type generation struct {
	id     uint64
	device string
	lib    *core.Library
	model  *sim.Model

	// choose maps a shape to the library's configuration index. When the
	// library's selector compiles (core.CompiledChooser) and the compiled
	// form is verified identical to the interpreted one over datasetShapes,
	// choose is the allocation-free compiled chooser and compiled is true;
	// otherwise it is lib.ChooseIndex. Either way it returns the exact same
	// index — compilation is a speedup, never a behaviour change.
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

// newGeneration builds epoch id for a device. The compiled chooser, config
// strings and /v1/configs body are computed here — once per reload, never
// per request — so the hot path does no per-request setup work.
func (s *Server) newGeneration(id uint64, device string, lib *core.Library, model *sim.Model) *generation {
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
	if len(s.regretUniverse) > 0 {
		g.universe = model.Batch(s.regretUniverse)
		n := len(s.regretUniverse)
		g.uniPool.New = func() any { r := make([]float64, n); return &r }
	}
	if lib.Unified() {
		g.choose, g.compiled = compileUnifiedChooser(lib, model, datasetShapes)
	} else {
		g.choose, g.compiled = compileChooser(lib, datasetShapes)
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
// request that starts after Reload returns sees the new library. The
// backend's closed-loop state survives the swap: it describes the device's
// traffic, not the artifact. Returns the new generation id.
func (s *Server) Reload(device string, lib *core.Library, model *sim.Model) (uint64, error) {
	be, err := s.backend(device)
	if err != nil {
		return 0, err
	}
	cur := be.gen.Load()
	if model == nil {
		model = cur.model
	}
	if err := checkSwap(be.name, cur, lib, model); err != nil {
		return 0, err
	}
	gen := s.newGeneration(s.genCounter.Add(1), be.name, lib, model)
	be.gen.Store(gen)
	return gen.id, nil
}

// Adopt swaps the named backend (empty = default) onto lib stamped with
// generation gen — the id another process serves that artifact under — so
// a tier serving a replica's artifact answers exactly as the replica does.
// It runs Reload's checks and keeps the current device model. Adopting the
// current generation is a no-op and an older one is refused, so generations
// never go backwards for a client; later Reloads number past gen.
func (s *Server) Adopt(device string, lib *core.Library, gen uint64) error {
	be, err := s.backend(device)
	if err != nil {
		return err
	}
	cur := be.gen.Load()
	if gen <= cur.id {
		return notAhead(be.name, gen, cur.id)
	}
	if err := checkSwap(be.name, cur, lib, cur.model); err != nil {
		return err
	}
	next := s.newGeneration(gen, be.name, lib, cur.model)
	for !be.gen.CompareAndSwap(cur, next) {
		if cur = be.gen.Load(); gen <= cur.id {
			return notAhead(be.name, gen, cur.id)
		}
	}
	for {
		c := s.genCounter.Load()
		if c >= gen || s.genCounter.CompareAndSwap(c, gen) {
			return nil
		}
	}
}

// notAhead is Adopt's answer for a generation that is not ahead of the
// served one: nothing to do when it is the same, an error when it is older.
func notAhead(device string, gen, served uint64) error {
	if gen == served {
		return nil
	}
	return fmt.Errorf("serve: adopt for %q: generation %d is behind the served generation %d", device, gen, served)
}

// checkSwap refuses a library a backend cannot serve. A backend's dispatch
// kind is fixed at construction: swapping a unified backend onto a
// shape-only library (or the reverse) would silently change what the
// selector consumes. This is exactly what a shadow retrain would do if its
// shape-trained candidate reached a unified backend — the error surfaces in
// the RetrainEvent instead of being served.
func checkSwap(device string, cur *generation, lib *core.Library, model *sim.Model) error {
	if lib == nil {
		return errors.New("serve: reload with a nil library")
	}
	if lib.Unified() != cur.lib.Unified() {
		kind := func(u bool) string {
			if u {
				return "unified"
			}
			return "shape-only"
		}
		return fmt.Errorf("serve: reload for %q: new library is %s but the backend serves a %s library",
			device, kind(lib.Unified()), kind(cur.lib.Unified()))
	}
	if lib.Unified() {
		if _, err := lib.UnifiedChooser(model.Dev.Features()); err != nil {
			return fmt.Errorf("serve: reload for %q: %v", device, err)
		}
	}
	return nil
}
