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
	"sync/atomic"
	"time"

	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
)

// Options configures a Router.
type Options struct {
	// Name identifies this router in gossiped views.
	Name string
	// Replicas is the fleet roster, in shard-index order. The roster is
	// static for the router's lifetime; liveness is tracked per entry.
	Replicas []*Replica
	// Local is the router-local decision engine: the degraded last resort
	// that answers priceable shapes when every ring candidate is down.
	// Required — the no-5xx guarantee is built on it.
	Local serve.Engine
	// Retries bounds sequential failover attempts beyond the first (default
	// 2). The hedge does not count against it.
	Retries int
	// RetryBackoff is the pause between sequential attempts (default 5ms),
	// and the default backoff for a saturated replica when its response
	// carries no Retry-After.
	RetryBackoff time.Duration
	// HedgeDelay launches one cross-shard hedged attempt when the primary
	// has not answered in time (default 25ms; negative disables hedging).
	HedgeDelay time.Duration
	// BackoffCap bounds how long a Retry-After can hold a replica out of
	// preference (default 1s).
	BackoffCap time.Duration
	// Vnodes per replica on the hash ring (default 128).
	Vnodes int
	// ProbeInterval runs the background probe+gossip loop when positive;
	// zero leaves probing to explicit ProbeOnce calls (tests, chaos).
	ProbeInterval time.Duration
	// Peers are sibling router base URLs; each probe round pushes this
	// router's view to them (gossip).
	Peers []string

	// EdgeCacheSize enables the generation-aware edge cache when positive:
	// up to this many pre-rendered decision bodies are kept per device
	// channel and served with zero allocations. Entries are stamped with the
	// owning replica's generation and evicted the moment the health view (or
	// a newer body) reports a bump; degraded answers are never cached.
	// 0 disables (default).
	EdgeCacheSize int
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "router"
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 25 * time.Millisecond
	}
	if o.BackoffCap == 0 {
		o.BackoffCap = time.Second
	}
	return o
}

// Router fronts N selectd replicas with consistent-hash sharding keyed on
// (device, shape-bucket), bounded retry with backoff, one cross-shard hedged
// attempt, and a router-local degraded fallback so a priceable shape is never
// answered with a 5xx. Health observations gossip between routers as
// Seq-versioned views on /v1/cluster. In front of the routing ladder sits a
// generation-aware edge cache answering repeats with zero allocations; every
// edge miss takes the ladder.
type Router struct {
	name     string
	replicas []*Replica
	local    serve.Engine
	ring     *ring
	health   *healthTable
	metrics  *routerMetrics
	opts     Options

	// edge is the generation-aware response cache (nil when disabled).
	// selectHit is the pre-resolved select|200 request counter so the
	// cache-hit path skips the formatted-key metrics lookup.
	edge      *edgeCache
	selectHit *atomic.Uint64

	// backoffUntil holds per-replica unix-nano timestamps: a saturated
	// replica (429/5xx with Retry-After) is deprioritized until then, but
	// only when an unsaturated candidate exists — backoff must never cause
	// a degraded answer on its own.
	backoffUntil []atomic.Int64

	reloadMu sync.Mutex // one orchestrated reload at a time

	gossipHC *http.Client
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New wires a router over a replica roster and a local fallback engine.
func New(opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas")
	}
	if opts.Local == nil {
		return nil, errors.New("cluster: nil local engine (required for degraded fallback)")
	}
	opts = opts.withDefaults()
	names := make([]string, len(opts.Replicas))
	for i, rep := range opts.Replicas {
		names[i] = rep.Name
	}
	r := &Router{
		name:         opts.Name,
		replicas:     opts.Replicas,
		local:        opts.Local,
		ring:         newRing(len(opts.Replicas), opts.Vnodes),
		health:       newHealthTable(names),
		metrics:      newRouterMetrics(names),
		opts:         opts,
		backoffUntil: make([]atomic.Int64, len(opts.Replicas)),
		gossipHC:     &http.Client{Timeout: 2 * time.Second},
		stop:         make(chan struct{}),
	}
	r.selectHit = r.metrics.counter("select", http.StatusOK)
	if opts.EdgeCacheSize > 0 {
		r.edge = newEdgeCache(opts.EdgeCacheSize, len(opts.Replicas), r.metrics)
		// Every generation the health view learns — probes, gossip merges —
		// flows into the cache's registers, so a bump observed anywhere
		// evicts that replica's stale entries before the next hit.
		idx := make(map[string]int, len(names))
		for i, n := range names {
			idx[n] = i
		}
		r.health.onGens = func(name string, gens map[string]uint64) {
			if i, ok := idx[name]; ok {
				r.edge.noteGens(i, gens)
			}
		}
	}
	return r, nil
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

// Close stops the probe loop.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
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

// setBackoff deprioritizes a replica until now+d (capped).
func (r *Router) setBackoff(idx int, d time.Duration) {
	if d > r.opts.BackoffCap {
		d = r.opts.BackoffCap
	}
	r.backoffUntil[idx].Store(time.Now().Add(d).UnixNano())
}

// routable filters a candidate order down to replicas worth trying: up and
// not in backoff. If backoff would empty the list, backed-off (but up)
// replicas are readmitted — backoff sheds preference, never availability.
func (r *Router) routable(order []int) []int {
	now := time.Now().UnixNano()
	alive := make([]int, 0, len(order))
	backedOff := make([]int, 0, 2)
	for _, idx := range order {
		if r.health.state(r.replicas[idx].Name) != StateUp {
			continue
		}
		if r.backoffUntil[idx].Load() > now {
			backedOff = append(backedOff, idx)
			continue
		}
		alive = append(alive, idx)
	}
	return append(alive, backedOff...)
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	idx    int
	hedge  bool
	status int
	body   []byte
	err    error
}

// attempt runs one replica round trip and reports it. Transport errors mark
// the replica down immediately (its shard re-hashes on the next request) —
// unless this attempt's context was cancelled, which says the ladder lost
// interest (a sibling won), not that the replica is sick. Saturation
// responses (429/5xx) arm the backoff from Retry-After.
func (r *Router) attempt(ctx context.Context, idx int, hedge bool, device string, shape gemm.Shape, ch chan<- attemptResult) {
	rep := r.replicas[idx]
	status, hdr, body, err := rep.Select(ctx, device, shape)
	if err != nil {
		if ctx.Err() == nil {
			r.metrics.repErrors.Add(1)
			r.health.observe(rep.Name, StateDown, nil, err.Error())
		}
		ch <- attemptResult{idx: idx, hedge: hedge, err: err}
		return
	}
	if status == http.StatusTooManyRequests || status >= 500 {
		r.setBackoff(idx, retryAfterOrDefault(hdr, r.opts.RetryBackoff))
	}
	ch <- attemptResult{idx: idx, hedge: hedge, status: status, body: body}
}

// acceptable reports whether an attempt outcome can be returned to the
// client: any HTTP response below 500. 2xx/4xx (including a shed 429, which
// carries Retry-After for the client) pass through verbatim; transport errors
// and 5xx stay inside the router and trigger failover.
func acceptable(res attemptResult) bool {
	return res.err == nil && res.status < 500
}

// tryReplicas runs the retry/hedge ladder over the candidate list: launch the
// first candidate, hedge to the second after HedgeDelay, and on failure walk
// the remaining candidates sequentially with backoff, up to Retries extra
// attempts. The first acceptable response wins and is counted exactly once;
// the moment it returns, every losing in-flight arm is cancelled through its
// own context, so hedges stop burning replica budget on work nobody will
// read.
func (r *Router) tryReplicas(ctx context.Context, alive []int, device string, shape gemm.Shape) (attemptResult, bool) {
	if len(alive) == 0 {
		return attemptResult{}, false
	}
	ch := make(chan attemptResult, len(alive))
	cancels := make([]context.CancelFunc, 0, len(alive))
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	launch := func(idx int, hedge bool) {
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go r.attempt(actx, idx, hedge, device, shape, ch)
	}
	next := 1
	pending := 1
	seqAttempts := 1
	launch(alive[0], false)

	var hedgeC <-chan time.Time
	if r.opts.HedgeDelay > 0 && len(alive) > 1 {
		t := time.NewTimer(r.opts.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}

	for {
		select {
		case <-ctx.Done():
			return attemptResult{}, false
		case <-hedgeC:
			hedgeC = nil
			if next < len(alive) {
				r.metrics.hedges.Add(1)
				pending++
				launch(alive[next], true)
				next++
			}
		case res := <-ch:
			pending--
			if acceptable(res) {
				return res, true
			}
			if pending > 0 {
				continue // an in-flight sibling may still win
			}
			if next >= len(alive) || seqAttempts > r.opts.Retries {
				return attemptResult{}, false
			}
			r.metrics.retries.Add(1)
			seqAttempts++
			select {
			case <-ctx.Done():
				return attemptResult{}, false
			case <-time.After(r.opts.RetryBackoff):
			}
			pending++
			launch(alive[next], false)
			next++
		}
	}
}

// errorBody mirrors serve's error envelope.
func errorBody(msg string) []byte {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	return b
}

// fallback answers from the router-local engine, stamped degraded with reason
// replica_down. This is the no-5xx backstop: a priceable shape always gets a
// usable (if conservative) configuration even with the whole fleet dark.
func (r *Router) fallback(device string, shape gemm.Shape) (int, []byte) {
	d, err := r.local.Decide(device, shape)
	if err != nil {
		// Unpriceable: unknown device or invalid shape — a client error on
		// any topology, single replica or fleet.
		return http.StatusBadRequest, errorBody(err.Error())
	}
	d.Degraded = true
	d.DegradedReason = "replica_down"
	r.metrics.fallbacks.Add(1)
	b, err := json.Marshal(d)
	if err != nil {
		return http.StatusBadRequest, errorBody(err.Error())
	}
	return http.StatusOK, b
}

// cacheFillBody stamps and caches one passthrough replica body: the
// generation is scanned out of the rendered JSON, degraded bodies are
// skipped, and anything the scanner cannot fully account for is simply not
// cached (never mis-stamped).
func (r *Router) cacheFillBody(device string, shape gemm.Shape, rep, status int, body []byte) {
	if r.edge == nil || status != http.StatusOK {
		return
	}
	gen, degraded, ok := serve.ScanDecisionMeta(body)
	if !ok || degraded || gen == 0 {
		return
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		body = append(append(make([]byte, 0, len(body)+1), body...), '\n')
	}
	r.edge.put(device, shape, rep, gen, body)
}

// route answers one select request through the full ladder: consistent-hash
// candidates, liveness filter, retry+hedge, local degraded fallback.
// Successful full-quality answers refill the edge cache on the way out.
func (r *Router) route(ctx context.Context, device string, shape gemm.Shape) (int, []byte) {
	alive := r.routable(r.ring.candidates(device, shape))
	if res, ok := r.tryReplicas(ctx, alive, device, shape); ok {
		r.metrics.wins[res.idx].Add(1)
		if res.hedge {
			r.metrics.hedgeWins.Add(1)
		}
		r.cacheFillBody(device, shape, res.idx, res.status, res.body)
		return res.status, res.body
	}
	return r.fallback(device, shape)
}

// selectBufPool holds per-request scratch for the select proxy loop: the
// request body lands in it and is scanned in place, so a cache hit touches
// the heap zero times.
var selectBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

var jsonContentType = []string{"application/json"}

func (r *Router) handleSelect(w http.ResponseWriter, req *http.Request) {
	bp := selectBufPool.Get().(*[]byte)
	defer selectBufPool.Put(bp)
	body, err := serve.ReadRequestBody(w, req, (*bp)[:0])
	*bp = body[:0]
	var shape gemm.Shape
	var deviceB []byte // aliases body; consumed before the buffer is released
	if err == nil {
		shape, deviceB, err = serve.ParseSelect(body)
	}
	if err != nil {
		status, out := serve.RequestError(err)
		r.writeResponse(w, "select", status, out)
		return
	}
	if r.edge != nil {
		if cached := r.edge.get(deviceB, shape); cached != nil {
			h := w.Header()
			h["Content-Type"] = jsonContentType
			w.WriteHeader(http.StatusOK)
			w.Write(cached)
			r.selectHit.Add(1)
			return
		}
	}
	status, out := r.route(req.Context(), string(deviceB), shape)
	r.writeResponse(w, "select", status, out)
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

// handleBatch shards a batch across the fleet: shapes group by their ring
// primary, each group rides one replica batch call (walking that group's
// candidate list on failure), and shapes whose candidates are all down get
// individual local fallback answers. Results return in request order. A
// client error is the whole batch's answer, as it is from a single selectd:
// the body is parsed by selectd's own parser before fan-out (each replica
// sees only its group, so an empty or oversized batch would otherwise pass
// or fail depending on how its shapes hash), a replica's 4xx other than 429
// passes through verbatim, and a shape the local fallback cannot answer
// fails the batch with the fallback's status.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	bp := selectBufPool.Get().(*[]byte)
	defer selectBufPool.Put(bp)
	body, err := serve.ReadRequestBody(w, req, (*bp)[:0])
	*bp = body[:0]
	var device string
	var shapes []gemm.Shape
	if err == nil {
		device, shapes, err = serve.ParseBatch(body)
	}
	if err != nil {
		status, out := serve.RequestError(err)
		r.writeResponse(w, "batch", status, out)
		return
	}

	// Group request indices by ring primary among routable candidates.
	groups := make(map[int][]int)
	var orphans []int // no routable candidate at all
	for i, shape := range shapes {
		alive := r.routable(r.ring.candidates(device, shape))
		if len(alive) == 0 {
			orphans = append(orphans, i)
			continue
		}
		groups[alive[0]] = append(groups[alive[0]], i)
	}

	results := make([]serve.Decision, len(shapes))
	var mu sync.Mutex
	var wg sync.WaitGroup
	// The first failure recorded is the batch's response.
	var failStatus int
	var failBody []byte
	fail := func(status int, body []byte) {
		mu.Lock()
		if failStatus == 0 {
			failStatus, failBody = status, body
		}
		mu.Unlock()
	}
	fallbackOne := func(i int) {
		status, out := r.fallback(device, shapes[i])
		if status != http.StatusOK {
			fail(status, out)
			return
		}
		var d serve.Decision
		json.Unmarshal(out, &d)
		mu.Lock()
		results[i] = d
		mu.Unlock()
	}
	for primary, idxs := range groups {
		wg.Add(1)
		go func(primary int, idxs []int) {
			defer wg.Done()
			group := make([]gemm.Shape, len(idxs))
			for j, i := range idxs {
				group[j] = shapes[i]
			}
			// Walk this group's candidates: the primary first, then the same
			// successor order a single request would fail over to.
			alive := r.routable(r.ring.candidates(device, group[0]))
			tried := 0
			for _, idx := range alive {
				if tried > r.opts.Retries {
					break
				}
				tried++
				decs, err := r.replicas[idx].Batch(req.Context(), device, group)
				if err != nil {
					var se *statusError
					if errors.As(err, &se) && clientError(se.status) {
						// The request itself is bad (unknown device, too many
						// shapes): every candidate would refuse it alike.
						fail(se.status, se.body)
						return
					}
					r.noteBatchError(req.Context(), idx, err)
					continue
				}
				r.metrics.wins[idx].Add(1)
				mu.Lock()
				for j, i := range idxs {
					results[i] = decs[j]
				}
				mu.Unlock()
				return
			}
			for _, i := range idxs {
				fallbackOne(i)
			}
		}(primary, idxs)
	}
	for _, i := range orphans {
		wg.Add(1)
		go func(i int) { defer wg.Done(); fallbackOne(i) }(i)
	}
	wg.Wait()
	if failStatus != 0 {
		r.writeResponse(w, "batch", failStatus, failBody)
		return
	}

	out := serve.AppendBatchJSON((*bp)[:0], results)
	r.writeResponse(w, "batch", http.StatusOK, out)
	*bp = out[:0]
}

// clientError reports whether a replica status blames the request rather
// than the replica: any 4xx except 429, which is saturation.
func clientError(status int) bool {
	return status >= 400 && status < 500 && status != http.StatusTooManyRequests
}

// noteBatchError classifies one failed upstream batch call: a non-200 status
// means the replica is alive but unwilling (saturation, draining) and earns
// backoff, while a transport error with a live context marks it down so its
// shards re-hash.
func (r *Router) noteBatchError(ctx context.Context, idx int, err error) {
	r.metrics.repErrors.Add(1)
	var se *statusError
	if errors.As(err, &se) {
		if se.status == http.StatusTooManyRequests || se.status >= 500 {
			r.setBackoff(idx, r.opts.RetryBackoff)
		}
		return
	}
	if ctx.Err() == nil {
		r.health.observe(r.replicas[idx].Name, StateDown, nil, err.Error())
	}
}

// maxBody caps the control endpoints' bodies; select and batch bodies go
// through serve.ReadRequestBody and share the serving tier's cap.
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
// rotation (state warming, so its shards re-hash to successors), reloads, has
// its edge-cache generation register advanced, and cuts back in.
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
	if r.edge != nil {
		// Eagerly advance the shard's generation register: the reloaded
		// replica's old-generation entries are stale the instant the swap
		// lands, before any probe round confirms it.
		r.edge.noteGens(idx, map[string]uint64{rw.Device: rw.Generation})
	}
	return sum
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// The router itself is always serviceable: with the fleet dark it still
	// answers degraded from the local engine, so healthz reports topology
	// rather than gating on replica liveness.
	b, _ := json.Marshal(struct {
		Status      string `json:"status"`
		ReplicasUp  int    `json:"replicas_up"`
		ReplicasAll int    `json:"replicas_total"`
	}{Status: "ok", ReplicasUp: r.health.upCount(), ReplicasAll: len(r.replicas)})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	w.Write([]byte("\n"))
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	up := func(name string) float64 {
		if r.health.state(name) == StateUp {
			return 1
		}
		return 0
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, r.metrics.render(up))
}

// Handler returns the router's full HTTP surface.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/select", r.handleSelect)
	mux.HandleFunc("POST /v1/select/batch", r.handleBatch)
	mux.HandleFunc("GET /v1/cluster", r.handleClusterGet)
	mux.HandleFunc("POST /v1/cluster", r.handleClusterPost)
	mux.HandleFunc("POST /v1/reload", r.handleReload)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}
