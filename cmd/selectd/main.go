// Command selectd serves online kernel selection over HTTP: the deployed
// form of the paper's pipeline, answering "which kernel configuration for
// this GEMM shape?" from a pruned library and trained selector.
//
// The daemon hosts one backend per device model (-devices r9nano,gen9,mali;
// the first is the default route), each with its own library, so a single
// process serves a heterogeneous fleet and requests pick their target with a
// "device" field. The default device's library comes from a persisted
// artifact (-library, written by -save or core.SaveLibrary) or is trained
// in-process from the device model; the other devices always train
// in-process. When -devices names more than one device, -library and
// -selector-file artifacts must carry a device tag (untagged legacy
// artifacts stay accepted in single-device mode, where there is nothing to
// confuse). The selector backend is pluggable
// (-selector tree|forest|1nn|3nn|linear-svm|radial-svm), so two selectd
// instances behind a traffic split A/B test the Table-I classifiers;
// -selector-file swaps in a selector-only artifact over the same kernel set.
//
// Unified mode (-unified lib.json) serves every -devices backend from one
// device-feature-augmented artifact (written by the portability study's
// BuildUnifiedLibrary + core.SaveUnifiedLibrary): the selector saw
// (shape, device-features) rows at training time, so dispatch appends the
// backend's device feature vector to the shape and one selector answers for
// the whole fleet — including synthetic held-out specs
// (-devices synthetic-fiji-32cu,...) the selector never trained on.
// Per-device metrics are unchanged; only the selector is shared.
// -unified is exclusive with -library, -selector-file, -save, and -retrain
// (the shadow retrainer produces shape-only libraries, which the reload path
// would reject).
//
// Endpoints:
//
//	POST /v1/select        {"m":3136,"k":576,"n":128,"device":"integrated-gen9"} → chosen config and kernel ID
//	POST /v1/select/batch  {"device":"...","shapes":[...]} → one decision per shape, at most serve.MaxBatch (1024)
//	POST /v1/reload        {"device":"..."} → hot-swap that backend onto a freshly loaded/retrained library
//	GET  /v1/configs       the served kernel set and selector (?device= picks a backend)
//	GET  /v1/devices       hosted device backends and the default route
//	GET  /v1/library       the served artifact as -save writes it (?device= picks a backend); X-Generation header
//	GET  /metrics          Prometheus text: request counters, latency histograms, per-device decision and closed-loop series
//	GET  /healthz          200 ok / 503 draining; body carries per-backend generation and selector detail
//
// Decisions: every answer, select or batch, is the generation's compiled
// selector plus config and kernel-ID strings rendered once per generation —
// tens of nanoseconds for a tree, with nothing to cache, ration or degrade
// and nothing that can block or fail. A select allocates nothing in the
// handler; a batch is bounded by serve.MaxBatch shapes, the 8 MiB body cap
// and the HTTP server's timeouts.
//
// Reload is atomic: each backend's library and model live in an immutable
// generation behind an atomic pointer; POST /v1/reload or SIGHUP (which
// reloads every device) swaps it without dropping in-flight requests. The
// default device re-reads -library when set; other devices retrain in
// process. GET /v1/library serves a backend's current artifact, with its
// generation in the X-Generation header from the same generation: a
// selectrouter in front of the replicas pulls it and answers every select
// itself, so behind a router a replica sees no selects (its -retrain never
// fires there) and its window sees none of the traffic.
//
// SIGINT/SIGTERM starts a graceful drain: healthz flips to 503, in-flight
// requests finish (up to -drain-timeout), then the listener closes.
//
// Closed loop (-regret-sample, -retrain): a sampled fraction of live
// decisions is re-priced off the request path against the full configuration
// universe and exported as selectd_regret histograms — the online analogue of
// the paper's offline regret metric. Every decision's shape also feeds a
// bounded sliding window (-window) from which each backend scores
// distribution drift against the training mix (selectd_drift_score, a PSI).
// With -retrain, drift past
// -drift-threshold shadow-trains a fresh selector on the blended mix using
// the daemon's own pruner/trainer and promotes it through the reload path
// only after it passes compiled/interpreted-agreement and
// holdout-regret-no-worse-than-incumbent gates; rejected candidates increment
// selectd_retrain_rejected_total and never serve. The loop runs every
// -maintain-interval.
//
// Observability: -pprof addr exposes net/http/pprof on its own listener,
// kept off the serving address so profiling endpoints are never reachable
// through the load balancer.
//
// Memory: the daemon collects garbage only when its Go memory reaches
// serve.HeapBudget, instead of after every doubling of a live heap of a few
// MB; GOGC or GOMEMLIMIT in the environment overrides the budget.
//
// Usage:
//
//	selectd [-addr :8080] [-devices r9nano,gen9] [-library lib.json] [-selector tree] [-n 8] [-seed 42] [-pprof localhost:6060] ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

func main() {
	serve.SetHeapBudget()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "selectd: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, builds the device backends, serves until ctx is
// cancelled, then drains in-flight requests. Log lines go to logw. A nil
// return means the drain completed.
func run(ctx context.Context, args []string, logw io.Writer) error {
	logger := log.New(logw, "selectd: ", 0)
	fs := flag.NewFlagSet("selectd", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address")
	unifiedPath := fs.String("unified", "", "unified (device-feature-augmented) library artifact; every -devices backend serves from this one selector")
	libPath := fs.String("library", "", "persisted library artifact for the default device (default: train in-process)")
	selFile := fs.String("selector-file", "", "selector-only artifact for the default device (overrides the library's selector)")
	selName := fs.String("selector", "tree", "in-process selector backend: tree, forest, 1nn, 3nn, linear-svm, radial-svm")
	prName := fs.String("pruner", "decision-tree", "in-process pruning method: top-n, k-means, hdbscan, pca+k-means, decision-tree, greedy-cover")
	n := fs.Int("n", 8, "library size when training in-process")
	seed := fs.Uint64("seed", 42, "training seed")
	devNames := fs.String("devices", "r9nano", "comma-separated device models to serve (r9nano, gen9, mali); the first is the default route")
	savePath := fs.String("save", "", "write the default device's library artifact to this path and continue")

	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
	regretSample := fs.Float64("regret-sample", 0, "fraction of live decisions re-priced off-path for regret telemetry (0 disables)")
	windowSize := fs.Int("window", 4096, "served-shape sliding window per device for drift scoring (negative disables)")
	driftThreshold := fs.Float64("drift-threshold", 0.25, "PSI drift score above which a shadow retrain fires")
	retrain := fs.Bool("retrain", false, "shadow-retrain the selector on the observed shape mix when drift crosses -drift-threshold")
	maintainInterval := fs.Duration("maintain-interval", 30*time.Second, "cadence of the drift/retrain maintenance loop (0 disables it)")
	pprofAddr := fs.String("pprof", "", "expose net/http/pprof on this separate listen address (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	specs, err := devicesFor(*devNames)
	if err != nil {
		return err
	}
	if *unifiedPath != "" {
		for flagName, set := range map[string]bool{
			"-library":       *libPath != "",
			"-selector-file": *selFile != "",
			"-save":          *savePath != "",
			"-retrain":       *retrain,
		} {
			if set {
				return fmt.Errorf("-unified is exclusive with %s", flagName)
			}
		}
	}

	trainer, err := trainerFor(*selName)
	if err != nil {
		return err
	}
	pruner, err := prunerFor(*prName)
	if err != nil {
		return err
	}

	// One backend per device. In unified mode a single device-feature-aware
	// artifact serves every backend; otherwise the default (first) device may
	// load its library from an artifact — validated against the device tag —
	// while secondary devices always train in-process from their own models:
	// a specialist library trained for one device is not portable to another
	// (that gap is what the portability study measures).
	strictTags := len(specs) > 1
	backends := make([]serve.Backend, len(specs))
	if *unifiedPath != "" {
		lib, err := loadUnifiedLibrary(*unifiedPath)
		if err != nil {
			return err
		}
		for i, spec := range specs {
			backends[i] = serve.Backend{Device: spec.Name, Lib: lib, Model: sim.New(spec)}
		}
	} else {
		for i, spec := range specs {
			model := sim.New(spec)
			var lib *core.Library
			if i == 0 && *libPath != "" {
				lib, err = loadLibrary(*libPath, spec.Name, strictTags)
			} else {
				lib, err = trainLibrary(model, pruner, trainer, *n, *seed)
			}
			if err != nil {
				return err
			}
			backends[i] = serve.Backend{Device: spec.Name, Lib: lib, Model: model}
		}
	}

	if *selFile != "" {
		f, err := os.Open(*selFile)
		if err != nil {
			return err
		}
		var sel core.Selector
		if strictTags {
			sel, err = core.LoadSelectorForDeviceStrict(f, specs[0].Name)
		} else {
			sel, err = core.LoadSelectorForDevice(f, specs[0].Name)
		}
		f.Close()
		if err != nil {
			return err
		}
		lib, err := backends[0].Lib.WithSelector(sel)
		if err != nil {
			return err
		}
		backends[0].Lib = lib
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := core.SaveLibraryForDevice(f, backends[0].Lib, specs[0].Name); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Printf("saved library artifact to %s", *savePath)
	}

	// The shadow retrain reuses the daemon's own pruner/trainer over whatever
	// blended shape mix the maintenance loop hands it, so a promoted candidate
	// is exactly what an operator would have trained offline for that mix.
	var retrainFn serve.RetrainFunc
	if *retrain {
		retrainFn = func(_ string, model *sim.Model, shapes []gemm.Shape) (*core.Library, error) {
			ds := dataset.Build(model, shapes, gemm.AllConfigs())
			return core.BuildLibrary(ds, pruner, trainer, *n, *seed), nil
		}
	}

	srv, err := serve.NewMulti(backends, serve.Options{
		RegretSample:     *regretSample,
		WindowSize:       *windowSize,
		DriftThreshold:   *driftThreshold,
		MaintainInterval: *maintainInterval,
		Retrain:          retrainFn,
		OnRetrain: func(ev serve.RetrainEvent) {
			if ev.Accepted {
				logger.Printf("retrain %s: promoted generation %d (drift %.3f, holdout regret %.4f vs incumbent %.4f)",
					ev.Device, ev.Generation, ev.Drift, ev.CandidateRegret, ev.IncumbentRegret)
				return
			}
			logger.Printf("retrain %s: %s (drift %.3f)", ev.Device, ev.Reason, ev.Drift)
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	var draining atomic.Bool
	srv.SetDrainCheck(draining.Load)

	// Hot reload: POST /v1/reload and SIGHUP both pull fresh libraries
	// through this source. Unified mode re-reads the shared artifact for any
	// device; otherwise the default device re-reads its artifact when one was
	// given and everything else retrains in-process against its own model.
	reloadSrc := func(dev string) (*core.Library, *sim.Model, error) {
		for i, spec := range specs {
			if spec.Name != dev {
				continue
			}
			if *unifiedPath != "" {
				lib, err := loadUnifiedLibrary(*unifiedPath)
				return lib, nil, err
			}
			if i == 0 && *libPath != "" {
				lib, err := loadLibrary(*libPath, spec.Name, strictTags)
				return lib, nil, err
			}
			lib, err := trainLibrary(sim.New(spec), pruner, trainer, *n, *seed)
			return lib, nil, err
		}
		return nil, nil, fmt.Errorf("unknown device %q", dev)
	}
	srv.SetReloadSource(reloadSrc)

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case <-done:
				return
			case <-hup:
			}
			logger.Print("SIGHUP: reloading all devices")
			for _, spec := range specs {
				lib, model, err := reloadSrc(spec.Name)
				if err != nil {
					logger.Printf("reload %s: %v", spec.Name, err)
					continue
				}
				id, err := srv.Reload(spec.Name, lib, model)
				if err != nil {
					logger.Printf("reload %s: %v", spec.Name, err)
					continue
				}
				logger.Printf("reloaded %s: generation %d, %d configurations", spec.Name, id, len(lib.Configs))
			}
		}
	}()

	// The profiling surface lives on its own listener: bind it to localhost
	// (or an ops network) and the serving address stays free of debug
	// endpoints.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		defer psrv.Close()
		go func() {
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof listener: %v", err)
			}
		}()
		logger.Printf("pprof on %s", *pprofAddr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	for _, b := range backends {
		logger.Printf("serving %s: %d configurations with selector %s",
			b.Device, len(b.Lib.Configs), b.Lib.SelectorName())
	}
	logger.Printf("listening on %s (default device %s)", ln.Addr(), specs[0].Name)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: fail healthz first so load balancers rotate us out,
	// then let in-flight requests finish before the listener closes.
	logger.Printf("signal received, draining for up to %v", *drainTimeout)
	draining.Store(true)
	srv.Close() // stop the regret worker and maintenance loop before the drain
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Print("drained cleanly")
	return nil
}

// deviceFor resolves short aliases first, then full device names — which
// covers the synthetic held-out specs (synthetic-fiji-32cu, ...) a unified
// artifact can serve without ever having trained on them.
func deviceFor(name string) (device.Spec, error) {
	switch name {
	case "r9nano":
		return device.R9Nano(), nil
	case "gen9":
		return device.IntegratedGen9(), nil
	case "mali":
		return device.EmbeddedMaliG72(), nil
	}
	if spec, err := device.ByName(name); err == nil {
		return spec, nil
	}
	return device.Spec{}, fmt.Errorf("unknown device %q", name)
}

// devicesFor parses the -devices comma list into unique specs.
func devicesFor(names string) ([]device.Spec, error) {
	var specs []device.Spec
	seen := map[string]bool{}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("device %q listed twice", name)
		}
		seen[name] = true
		spec, err := deviceFor(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no devices in %q", names)
	}
	return specs, nil
}

// loadLibrary reads a persisted artifact, rejecting libraries tagged for a
// different device. In strict mode (multi-device serving) untagged legacy
// artifacts are rejected too: with several backends in one process, an
// untagged file gives no evidence it belongs to the device it would serve.
func loadLibrary(path, deviceName string, strict bool) (*core.Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strict {
		return core.LoadLibraryForDeviceStrict(f, deviceName)
	}
	return core.LoadLibraryForDevice(f, deviceName)
}

// loadUnifiedLibrary reads a device-feature-augmented artifact and refuses
// plain specialist libraries: serving a shape-only selector through the
// unified dispatch path would silently ignore the device dimension.
func loadUnifiedLibrary(path string) (*core.Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lib, err := core.LoadLibrary(f)
	if err != nil {
		return nil, err
	}
	if !lib.Unified() {
		return nil, fmt.Errorf("%s: not a unified artifact (selector %q has shape-only width %d); serve it with -library instead",
			path, lib.SelectorName(), lib.NumFeatures())
	}
	return lib, nil
}

// trainLibrary reproduces the paper pipeline in-process: price the 170-shape
// dataset on the device model, prune, train.
func trainLibrary(model *sim.Model, pruner core.Pruner, trainer core.SelectorTrainer, n int, seed uint64) (*core.Library, error) {
	shapes, _ := workload.DatasetShapes()
	ds := dataset.Build(model, shapes, gemm.AllConfigs())
	return core.BuildLibrary(ds, pruner, trainer, n, seed), nil
}

func trainerFor(name string) (core.SelectorTrainer, error) {
	switch name {
	case "tree":
		return core.DecisionTreeSelector{}, nil
	case "forest":
		return core.RandomForestSelector{}, nil
	case "1nn":
		return core.KNNSelector{K: 1}, nil
	case "3nn":
		return core.KNNSelector{K: 3}, nil
	case "linear-svm":
		return core.LinearSVMSelector{}, nil
	case "radial-svm":
		return core.RadialSVMSelector{}, nil
	default:
		return nil, fmt.Errorf("unknown selector %q", name)
	}
}

func prunerFor(name string) (core.Pruner, error) {
	for _, p := range append(core.AllPruners(), core.Greedy{}) {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown pruner %q", name)
}
