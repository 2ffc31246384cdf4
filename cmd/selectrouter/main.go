// Command selectrouter fronts a fleet of selectd replicas with
// failure-domain routing: requests hash onto a consistent ring keyed on
// (device, shape-bucket), so each replica owns a stable shard of the shape
// space. The router retries across the ring's successor order with bounded
// backoff, launches one cross-shard hedged attempt when the primary is slow
// (-hedge-delay), and — when every candidate is down — answers degraded from
// a router-local engine trained in-process, so a priceable shape never sees
// a 5xx.
//
// In front of the routing ladder sits a generation-aware edge cache
// (-edge-cache): repeat (device, shape) requests are answered from
// pre-rendered bodies with zero allocations, and an entry is invalidated the
// moment the gossiped view reports a generation bump for the owning replica.
// Degraded answers are never cached. Every edge miss takes the ladder.
//
// Health is probed per replica (-probe-interval) and folded into a gossiped
// view: GET /v1/cluster serves it, POST /v1/cluster merges a peer router's
// view (sequence numbers win), and -peers names the other routers this one
// pushes its view to after each probe round.
//
// POST /v1/reload rolls a named replica (or all of them, one at a time) onto
// a fresh generation: the replica leaves rotation, reloads, has its
// edge-cache generation register advanced, and cuts back in.
//
// Endpoints:
//
//	POST /v1/select        routed single decision (edge cache, shard primary, retry, hedge, degrade)
//	POST /v1/select/batch  shapes fan out to their shard owners and reassemble in order
//	GET  /v1/cluster       gossiped health/generation view
//	POST /v1/cluster       merge a peer router's view
//	POST /v1/reload        {"replica":"...","device":"..."} rolling reload
//	GET  /healthz          200 always (the router degrades, it does not die); body counts replicas up
//	GET  /metrics          Prometheus text, every series prefixed router_
//
// Usage:
//
//	selectrouter -addr :8090 -replicas http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	    [-peers http://router-b:8090] [-probe-interval 2s] [-hedge-delay 25ms] [-retries 2] [-edge-cache 4096]
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
	"syscall"
	"time"

	"kernelselect/internal/cluster"
	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "selectrouter: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, serves until ctx is cancelled, then drains in-flight
// requests. Log lines go to logw. A nil return means the drain completed.
func run(ctx context.Context, args []string, logw io.Writer) error {
	logger := log.New(logw, "selectrouter: ", 0)
	fs := flag.NewFlagSet("selectrouter", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8090", "listen address")
	name := fs.String("name", "router", "router name in gossiped views")
	replicasFlag := fs.String("replicas", "", "comma-separated selectd replicas, url or name=url (required)")
	peersFlag := fs.String("peers", "", "comma-separated peer router base URLs to gossip views to")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "health-probe and gossip cadence (0 disables the loop)")
	hedgeDelay := fs.Duration("hedge-delay", 25*time.Millisecond, "launch a cross-shard hedged attempt after this wait (negative disables)")
	retries := fs.Int("retries", 2, "sequential failover attempts beyond the first")
	retryBackoff := fs.Duration("retry-backoff", 5*time.Millisecond, "pause between sequential attempts")
	backoffCap := fs.Duration("backoff-cap", time.Second, "longest a Retry-After can deprioritize a replica")
	vnodes := fs.Int("vnodes", 128, "virtual nodes per replica on the hash ring")
	edgeCache := fs.Int("edge-cache", 4096, "generation-aware edge cache entries per device (0 disables)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	devName := fs.String("device", "r9nano", "device model for the router-local fallback engine")
	selName := fs.String("selector", "tree", "local fallback selector: tree, forest, 1nn, 3nn, linear-svm, radial-svm")
	n := fs.Int("n", 8, "local fallback library size")
	seed := fs.Uint64("seed", 42, "local fallback training seed")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
	if err := fs.Parse(args); err != nil {
		return err
	}

	replicas, err := parseReplicas(*replicasFlag)
	if err != nil {
		return err
	}

	// The local fallback engine is a full in-process selectd backend trained
	// from the device model: last resort, never primary, so a modest library
	// is fine — correctness of the no-5xx contract matters, peak quality
	// does not.
	local, err := localEngine(*devName, *selName, *n, *seed)
	if err != nil {
		return err
	}
	defer local.Close()

	router, err := cluster.New(cluster.Options{
		Name:          *name,
		Replicas:      replicas,
		Local:         local,
		Retries:       *retries,
		RetryBackoff:  *retryBackoff,
		HedgeDelay:    *hedgeDelay,
		BackoffCap:    *backoffCap,
		Vnodes:        *vnodes,
		ProbeInterval: *probeInterval,
		Peers:         splitList(*peersFlag),
		EdgeCacheSize: *edgeCache,
	})
	if err != nil {
		return err
	}
	router.Start()
	defer router.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           router.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if *pprofAddr != "" {
		// Same pattern as selectd: pprof on its own listener so profiling
		// never shares a mux (or a port) with the serving surface.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		defer psrv.Close()
		go func() {
			logger.Printf("pprof on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	for _, rep := range replicas {
		logger.Printf("replica %s -> %s", rep.Name, rep.URL)
	}
	logger.Printf("routing on %s (%d replicas, local fallback %s)", ln.Addr(), len(replicas), *devName)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	logger.Printf("shutting down, draining for up to %v", *drainTimeout)
	router.Close() // stop probing/gossiping before the listener goes away
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

// parseReplicas turns "-replicas url,name=url,..." into the fleet roster.
// Unnamed entries get positional names (replica-0, ...); roster order is
// shard-index order, so keep it identical across routers sharing a fleet.
func parseReplicas(s string) ([]*cluster.Replica, error) {
	entries := splitList(s)
	if len(entries) == 0 {
		return nil, fmt.Errorf("-replicas is required (comma-separated url or name=url)")
	}
	reps := make([]*cluster.Replica, 0, len(entries))
	seen := map[string]bool{}
	for i, entry := range entries {
		name, url := fmt.Sprintf("replica-%d", i), entry
		if pre, rest, ok := strings.Cut(entry, "="); ok && !strings.Contains(pre, "://") {
			name, url = strings.TrimSpace(pre), strings.TrimSpace(rest)
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, fmt.Errorf("replica %q: URL must start with http:// or https://", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("replica name %q used twice", name)
		}
		seen[name] = true
		reps = append(reps, cluster.NewReplica(name, strings.TrimRight(url, "/"), nil))
	}
	return reps, nil
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// localEngine trains the router-local fallback backend in-process, exactly
// like an in-process selectd would for the same device.
func localEngine(devName, selName string, n int, seed uint64) (*serve.Server, error) {
	spec, err := deviceFor(devName)
	if err != nil {
		return nil, err
	}
	trainer, err := trainerFor(selName)
	if err != nil {
		return nil, err
	}
	model := sim.New(spec)
	shapes, _ := workload.DatasetShapes()
	ds := dataset.Build(model, shapes, gemm.AllConfigs())
	lib := core.BuildLibrary(ds, core.DecisionTree{}, trainer, n, seed)
	return serve.New(lib, model, serve.Options{}), nil
}

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
