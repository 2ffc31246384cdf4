// Command selectrouter fronts a fleet of selectd replicas and answers every
// select from the artifact they serve. At start it pulls each device's
// artifact and generation from the first replica that answers
// (GET /v1/library), retrying until one does, and builds the same engine a
// selectd builds from it; POST /v1/select and /v1/select/batch then run
// selectd's own handlers over that engine, so an answer is byte-for-byte what
// a replica would send, stamped with the replica's generation. A decision is
// a compiled-tree walk, so nothing is forwarded, sharded or cached, and with
// the whole fleet dark the router keeps answering every device from the last
// artifact it pulled.
//
// Health is probed per replica (-probe-interval) and folded into a gossiped
// view: GET /v1/cluster serves it, POST /v1/cluster merges a peer router's
// view (sequence numbers win), and -peers names the other routers this one
// pushes its view to after each probe round. Whenever a probe, a merge or a
// rolling reload shows a replica serving a newer generation than the router,
// the router pulls that device from that replica and adopts it.
//
// POST /v1/reload rolls a named replica (or all of them, one at a time) onto
// a fresh generation: the replica leaves rotation, reloads, and cuts back in,
// and the router pulls the new generation before it answers.
//
// Like selectd, the router collects garbage only when its Go memory reaches
// serve.HeapBudget; GOGC or GOMEMLIMIT in the environment overrides the
// budget.
//
// Endpoints:
//
//	POST /v1/select        one decision from the pulled artifact, as selectd answers it
//	POST /v1/select/batch  one decision per shape, as selectd answers it
//	GET  /v1/cluster       gossiped health/generation view
//	POST /v1/cluster       merge a peer router's view
//	POST /v1/reload        {"replica":"...","device":"..."} rolling reload
//	GET  /healthz          200 always; body counts replicas up and lists the generation served per device
//	GET  /metrics          Prometheus text: the router_ series, then the engine's selectd_ series
//
// Usage:
//
//	selectrouter -addr :8090 -replicas http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	    [-peers http://router-b:8090] [-probe-interval 2s]
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
	"kernelselect/internal/serve"
)

// pullRetry is the pause between start-up pulls while no replica answers.
const pullRetry = time.Second

func main() {
	serve.SetHeapBudget()
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
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
	if err := fs.Parse(args); err != nil {
		return err
	}

	replicas, err := parseReplicas(*replicasFlag)
	if err != nil {
		return err
	}

	// The router serves the fleet's artifact, so it pulls before it listens.
	var router *cluster.Router
	for {
		router, err = cluster.New(ctx, cluster.Options{
			Name:          *name,
			Replicas:      replicas,
			ProbeInterval: *probeInterval,
			Peers:         splitList(*peersFlag),
		})
		if err == nil {
			break
		}
		logger.Printf("%v; retrying in %v", err, pullRetry)
		select {
		case <-ctx.Done():
			return fmt.Errorf("stopped before any replica served an artifact: %w", err)
		case <-time.After(pullRetry):
		}
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
	logger.Printf("routing on %s (%d replicas)", ln.Addr(), len(replicas))

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	logger.Printf("shutting down, draining for up to %v", *drainTimeout)
	router.Close() // stop probing and gossiping before the listener goes away
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
// Unnamed entries get positional names (replica-0, ...), so routers sharing
// a fleet and gossiping views should list it in the same order.
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
