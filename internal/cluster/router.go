// Package cluster fronts a fleet of selectd replicas with a router that
// answers every select from the artifact the replicas serve. The router pulls
// each device's artifact and generation from a replica, builds a serve engine
// over them, and pulls again whenever a probe, a gossip merge or its own
// rolling reload shows a replica serving a newer generation. Health probing,
// the gossiped view and rolling-reload orchestration make up the fleet's
// control plane.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"kernelselect/internal/device"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// Options configures a Router.
type Options struct {
	// Name identifies this router in gossiped views.
	Name string
	// Replicas is the fleet roster. The roster is static for the router's
	// lifetime; liveness is tracked per entry.
	Replicas []*Replica
	// ProbeInterval runs the background probe+gossip loop when positive;
	// zero leaves probing to explicit ProbeOnce calls (tests, chaos).
	ProbeInterval time.Duration
	// Peers are sibling router base URLs; each probe round pushes this
	// router's view to them (gossip).
	Peers []string
}

// Router answers every select and batch from the artifact its selectd
// replicas serve. It pulls each device's artifact from a replica at start and
// builds a serve engine stamped with the replica's generations; whenever it
// learns that a replica serves a newer generation — from a probe, a gossip
// merge or its own rolling reload — it pulls that device again and adopts it.
// Select and batch run selectd's own handlers over that engine, so the router
// parses, decides and encodes byte-for-byte as a replica does, and with the
// whole fleet dark it keeps answering from the last artifact it pulled. What
// the router adds is the fleet's control plane: health probing, a gossiped
// Seq-versioned view on /v1/cluster, and rolling-reload orchestration.
type Router struct {
	name     string
	replicas []*Replica
	engine   *serve.Server
	engineH  http.Handler
	health   *healthTable
	metrics  *routerMetrics
	opts     Options

	pullMu   sync.Mutex // one catch-up pull at a time
	reloadMu sync.Mutex // one orchestrated reload at a time

	// life bounds the pulls a probe or gossip merge triggers; Close cancels
	// it.
	life     context.Context
	cancel   context.CancelFunc
	gossipHC *http.Client
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// pullTimeout bounds one replica's artifact pull.
const pullTimeout = 10 * time.Second

// New wires a router over a replica roster. It pulls every device's artifact
// from the first replica whose /healthz answers, keeping that replica's
// device order so the router's default device is the replica's, and fails
// when no replica serves an artifact.
func New(ctx context.Context, opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas")
	}
	if opts.Name == "" {
		opts.Name = "router"
	}
	var engine *serve.Server
	var errs []error
	for _, rep := range opts.Replicas {
		pctx, cancel := context.WithTimeout(ctx, pullTimeout)
		e, err := pullEngine(pctx, rep)
		cancel()
		if err == nil {
			engine = e
			break
		}
		errs = append(errs, err)
	}
	if engine == nil {
		return nil, fmt.Errorf("cluster: no replica serves an artifact: %w", errors.Join(errs...))
	}
	names := make([]string, len(opts.Replicas))
	for i, rep := range opts.Replicas {
		names[i] = rep.Name
	}
	life, cancel := context.WithCancel(context.Background())
	r := &Router{
		life:     life,
		cancel:   cancel,
		name:     opts.Name,
		replicas: opts.Replicas,
		engine:   engine,
		engineH:  engine.Handler(),
		health:   newHealthTable(names),
		metrics:  newRouterMetrics(names),
		opts:     opts,
		gossipHC: &http.Client{Timeout: 2 * time.Second},
		stop:     make(chan struct{}),
	}
	r.health.onGens = func(name string, gens map[string]uint64) { r.catchUp(r.life, name, gens) }
	return r, nil
}

// pullEngine builds the router's engine from one replica: every device its
// /healthz lists, in order, each served from the artifact the replica
// serves it with and stamped with the replica's generation.
func pullEngine(ctx context.Context, rep *Replica) (*serve.Server, error) {
	hz, err := rep.health(ctx)
	if err != nil {
		return nil, err
	}
	if len(hz.Backends) == 0 {
		return nil, fmt.Errorf("replica %s serves no device", rep.Name)
	}
	backends := make([]serve.Backend, len(hz.Backends))
	gens := make([]uint64, len(hz.Backends))
	for i, be := range hz.Backends {
		spec, err := device.ByName(be.Device)
		if err != nil {
			return nil, fmt.Errorf("replica %s: %w", rep.Name, err)
		}
		lib, gen, err := rep.Library(ctx, be.Device)
		if err != nil {
			return nil, err
		}
		backends[i] = serve.Backend{Device: be.Device, Lib: lib, Model: sim.New(spec)}
		gens[i] = gen
	}
	// No drift window: the router runs no maintenance pass, so a window
	// would only collect every select it answers and never score one
	// (selectd_drift_score would read 0 forever). Fleet-wide drift comes
	// back when retraining leaves the daemon and reads every serving
	// process's recent decisions (ROADMAP items 3 and 7).
	engine, err := serve.NewMulti(backends, serve.Options{WindowSize: -1})
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", rep.Name, err)
	}
	for i, b := range backends {
		if err := engine.Adopt(b.Device, b.Lib, gens[i]); err != nil {
			engine.Close()
			return nil, fmt.Errorf("replica %s: %w", rep.Name, err)
		}
	}
	return engine, nil
}

// catchUp is the router's one catch-up path. Whenever the health table
// learns that replica name serves a newer generation of a device than the
// engine does — from a probe, a gossip merge or a rolling reload's response
// — the router pulls that device from that replica and adopts it. Pulls run
// one at a time; a failed one is counted and retried when the next
// observation of that replica arrives.
func (r *Router) catchUp(ctx context.Context, name string, gens map[string]uint64) error {
	var rep *Replica
	for _, c := range r.replicas {
		if c.Name == name {
			rep = c
		}
	}
	if rep == nil {
		return nil
	}
	r.pullMu.Lock()
	defer r.pullMu.Unlock()
	var errs []error
	for dev, gen := range gens {
		if cur, err := r.engine.Generation(dev); err != nil || gen <= cur {
			continue // a device the router does not serve, or nothing newer
		}
		pctx, cancel := context.WithTimeout(ctx, pullTimeout)
		lib, pulled, err := rep.Library(pctx, dev)
		cancel()
		if err == nil {
			err = r.engine.Adopt(dev, lib, pulled)
		}
		if err != nil {
			r.metrics.pullErrors.Add(1)
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Start launches the background probe+gossip loop when ProbeInterval is set.
func (r *Router) Start() {
	if r.opts.ProbeInterval <= 0 {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeInterval)
				view := r.ProbeOnce(ctx)
				r.gossip(ctx, view)
				cancel()
			}
		}
	}()
}

// Close stops the probe loop and the engine's background work.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.cancel()
	r.wg.Wait()
	r.engine.Close()
}

// gossip pushes this router's view to each configured peer.
func (r *Router) gossip(ctx context.Context, view View) {
	body, err := json.Marshal(view)
	if err != nil {
		return
	}
	for _, peer := range r.opts.Peers {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/cluster", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := r.gossipHC.Do(req); err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
		}
	}
}

// View reports the router's current gossiped health/generation view.
func (r *Router) View() View { return r.health.snapshot(r.name) }

// MarkDown force-marks a replica down (operator action and tests).
func (r *Router) MarkDown(name string) { r.health.observe(name, StateDown, nil, "marked down") }

// MarkUp force-marks a replica up.
func (r *Router) MarkUp(name string) { r.health.observe(name, StateUp, nil, "") }

// errorBody mirrors serve's error envelope.
func errorBody(msg string) []byte {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	return b
}

// writeResponse commits one response and counts it once.
func (r *Router) writeResponse(w http.ResponseWriter, endpoint string, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
	r.metrics.request(endpoint, status)
}

// maxBody caps the control endpoints' bodies; select and batch bodies are
// the engine's, under the serving tier's cap.
const maxBody = 1 << 20

func (r *Router) handleClusterGet(w http.ResponseWriter, _ *http.Request) {
	b, _ := json.Marshal(r.View())
	r.writeResponse(w, "cluster", http.StatusOK, b)
}

func (r *Router) handleClusterPost(w http.ResponseWriter, req *http.Request) {
	var v View
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBody))
	if err == nil {
		err = json.Unmarshal(body, &v)
	}
	if err != nil {
		r.writeResponse(w, "cluster", http.StatusBadRequest, errorBody(err.Error()))
		return
	}
	adopted := r.health.merge(v)
	r.metrics.merges.Add(uint64(adopted))
	b, _ := json.Marshal(struct {
		Adopted int `json:"adopted"`
	}{Adopted: adopted})
	r.writeResponse(w, "cluster", http.StatusOK, b)
}

// reloadSummary is the router's POST /v1/reload body: one entry per replica
// rolled.
type reloadSummary struct {
	Replica    string `json:"replica"`
	Device     string `json:"device,omitempty"`
	Generation uint64 `json:"generation"`
	Err        string `json:"error,omitempty"`
}

func (r *Router) handleReload(w http.ResponseWriter, req *http.Request) {
	var rr struct {
		Replica string `json:"replica,omitempty"`
		Device  string `json:"device,omitempty"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBody))
	if err == nil && len(bytes.TrimSpace(body)) > 0 {
		err = json.Unmarshal(body, &rr)
	}
	if err != nil {
		r.writeResponse(w, "reload", http.StatusBadRequest, errorBody(err.Error()))
		return
	}
	targets := make([]int, 0, len(r.replicas))
	if rr.Replica != "" {
		found := -1
		for i, rep := range r.replicas {
			if rep.Name == rr.Replica {
				found = i
				break
			}
		}
		if found < 0 {
			r.writeResponse(w, "reload", http.StatusBadRequest, errorBody(fmt.Sprintf("unknown replica %q", rr.Replica)))
			return
		}
		targets = append(targets, found)
	} else {
		for i := range r.replicas {
			targets = append(targets, i)
		}
	}

	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	summaries := make([]reloadSummary, 0, len(targets))
	failed := false
	for _, idx := range targets {
		s := r.reloadReplica(req.Context(), idx, rr.Device)
		if s.Err != "" {
			failed = true
		}
		summaries = append(summaries, s)
	}
	out, _ := json.Marshal(struct {
		Reloads []reloadSummary `json:"reloads"`
	}{Reloads: summaries})
	code := http.StatusOK
	if failed {
		code = http.StatusBadGateway
	}
	r.writeResponse(w, "reload", code, out)
}

// reloadReplica rolls one replica onto a fresh generation: the replica leaves
// rotation (state warming, so probes leave it alone), reloads, and cuts back
// in. The router pulls the new generation before answering, so the client's
// next select sees it.
func (r *Router) reloadReplica(ctx context.Context, idx int, device string) reloadSummary {
	rep := r.replicas[idx]
	sum := reloadSummary{Replica: rep.Name, Device: device}
	if r.health.state(rep.Name) == StateDown {
		sum.Err = "replica down"
		return sum
	}
	r.health.observe(rep.Name, StateWarming, nil, "")
	defer func() {
		if sum.Err == "" {
			r.health.observe(rep.Name, StateUp, nil, "")
		} else {
			r.health.observe(rep.Name, StateDown, nil, sum.Err)
		}
	}()

	rw, err := rep.Reload(ctx, device)
	if err != nil {
		sum.Err = err.Error()
		return sum
	}
	sum.Generation = rw.Generation
	r.metrics.reloads.Add(1)
	if err := r.catchUp(ctx, rep.Name, map[string]uint64{rw.Device: rw.Generation}); err != nil {
		sum.Err = err.Error()
	}
	return sum
}

// deviceGeneration is one device the router serves and the generation it
// serves it under, in the engine's route order (the first is the default).
type deviceGeneration struct {
	Device     string `json:"device"`
	Generation uint64 `json:"generation"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// The router itself is always serviceable: with the fleet dark it still
	// answers from the last artifact it pulled, so healthz reports topology
	// rather than gating on replica liveness.
	devs := r.engine.Devices()
	served := make([]deviceGeneration, len(devs))
	for i, d := range devs {
		gen, _ := r.engine.Generation(d)
		served[i] = deviceGeneration{Device: d, Generation: gen}
	}
	b, _ := json.Marshal(struct {
		Status      string             `json:"status"`
		ReplicasUp  int                `json:"replicas_up"`
		ReplicasAll int                `json:"replicas_total"`
		Backends    []deviceGeneration `json:"backends"`
	}{Status: "ok", ReplicasUp: r.health.upCount(), ReplicasAll: len(r.replicas), Backends: served})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	w.Write([]byte("\n"))
}

// handleMetrics renders the router_ series, then the engine's own page: its
// request counters and latency histograms cover every select and batch the
// router answered, and its per-device series the decisions and generations.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	up := func(name string) float64 {
		if r.health.state(name) == StateUp {
			return 1
		}
		return 0
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, r.metrics.render(up))
	r.engineH.ServeHTTP(w, req)
}

// Handler returns the router's full HTTP surface. Select and batch are the
// engine's own handlers; its reload route is not mounted, so the router's
// rolling reload is the only one.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/select", r.engineH)
	mux.Handle("POST /v1/select/batch", r.engineH)
	mux.HandleFunc("GET /v1/cluster", r.handleClusterGet)
	mux.HandleFunc("POST /v1/cluster", r.handleClusterPost)
	mux.HandleFunc("POST /v1/reload", r.handleReload)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}
