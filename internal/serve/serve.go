// Package serve is the online half of the paper's pipeline: an HTTP daemon
// that loads deployed library artifacts (pruned kernel set + trained
// selector, see internal/core/persist.go) and answers "which kernel
// configuration for this GEMM shape?" at serving latency.
//
// A server hosts one selection backend per device model — the cross-device
// deployment the portability study measures — and routes each query by the
// request's "device" field (defaulting to the first backend). A decision is a
// pure function of (generation, device, shape): the generation's compiled
// selector picks a configuration index, and the answer's config and kernel-ID
// strings were rendered once when the generation was built. Nothing on that
// path can block or fail, so every answer — select, batch or Decide — is the
// selector's choice: there is no admission token, shed threshold, deadline,
// cache or degraded fallback. A batch is bounded by MaxBatch shapes and the
// 8 MiB body cap. Production concerns are handled in-process with no
// external dependencies:
//
//   - atomic hot reload: each backend's library and model form an immutable
//     generation behind an atomic pointer, swappable via Reload or
//     POST /v1/reload without dropping in-flight requests; GET /v1/library
//     serves the current artifact and its generation, and Adopt swaps one in
//     under the generation another process serves it with, so a cluster
//     router answers exactly as its replicas do;
//   - per-endpoint request counters and latency histograms plus per-device
//     decision and closed-loop series, exposed at GET /metrics in Prometheus
//     text format;
//   - a draining flag that fails GET /healthz ahead of graceful shutdown,
//     letting a load balancer rotate the instance out while in-flight
//     requests finish; healthz's body reports per-backend detail.
//
// The selector backends are whatever the loaded libraries dispatch with
// (decision tree, random forest, k-NN, SVM — anything core.LoadLibrary
// accepts), which makes a single selectd process an A/B harness for the
// Table-I classifier comparison under real traffic.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

// MaxBatch is the most shapes one /v1/select/batch request may carry.
const MaxBatch = 1024

// Options configure the server. The zero value selects the defaults.
type Options struct {
	// RegretSample is the fraction of served decisions stamped for
	// background regret measurement against the config universe (regret.go).
	// 0 disables sampling; 1 measures every decision. Sampling is
	// deterministic — every round(1/RegretSample)-th decision per backend —
	// so sampled + unsampled counts partition the total exactly.
	RegretSample float64

	// RegretUniverse is the configuration universe regret is measured
	// against; default gemm.AllConfigs() (materialized only when the closed
	// loop is on).
	RegretUniverse []gemm.Config

	// WindowSize bounds the served-shape sliding window the closed loop
	// reasons over; default 4096, negative disables the window (and with it
	// drift scoring and retraining).
	WindowSize int

	// DriftThreshold is the PSI drift score above which a shadow retrain
	// fires; default 0.25 (the conventional "significant shift" reading).
	DriftThreshold float64

	// TrainShapes is the training-time shape mix the drift score compares
	// the live window against (duplicates weight the mix); default: the
	// paper's dataset shapes.
	TrainShapes []gemm.Shape

	// Retrain, when non-nil, enables shadow retraining: it is called on the
	// maintenance goroutine with the blended shape mix whenever drift
	// crosses DriftThreshold, and its candidate is promoted only after the
	// verification gates pass (retrain.go).
	Retrain RetrainFunc

	// RetrainMinWindow is the minimum window fill before drift can trigger
	// a retrain; default 64.
	RetrainMinWindow int

	// MaintainInterval is the period of the background maintenance loop
	// (drift scoring, shadow retraining). 0 disables
	// the loop; callers may still drive Maintain directly.
	MaintainInterval time.Duration

	// OnRetrain, when non-nil, observes every shadow-retrain attempt
	// (promotions, rejections, and errors) from the maintenance goroutine.
	OnRetrain func(RetrainEvent)
}

func (o Options) withDefaults() Options {
	if o.RegretSample < 0 {
		o.RegretSample = 0
	}
	if o.RegretSample > 1 {
		o.RegretSample = 1
	}
	if o.WindowSize == 0 {
		o.WindowSize = 4096
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = 0.25
	}
	if o.TrainShapes == nil {
		o.TrainShapes = datasetShapes
	}
	if o.RetrainMinWindow <= 0 {
		o.RetrainMinWindow = 64
	}
	if o.RegretUniverse == nil && (o.RegretSample > 0 || o.Retrain != nil) {
		o.RegretUniverse = gemm.AllConfigs()
	}
	return o
}

// Backend pairs one device's deployed library with its device model. Device
// is the name clients route by. The model never prices a served decision: it
// prices regret samples and retrain gates, both off the request path, and
// supplies a unified selector's device features.
type Backend struct {
	Device string
	Lib    *core.Library
	Model  *sim.Model
}

// Server answers kernel-selection queries for one or more device backends.
type Server struct {
	backends     []*backend
	byName       map[string]*backend
	opts         Options
	metrics      *metrics
	genCounter   atomic.Uint64
	reloadSource ReloadSource // set before serving; nil disables /v1/reload
	draining     func() bool

	// Closed-loop state (regret.go, retrain.go). regretEvery is the
	// deterministic sampling stride (0 = sampling off); regretQ feeds the
	// background measurement worker; stop tears the background goroutines
	// down on Close.
	regretEvery    uint64
	regretUniverse []gemm.Config
	regretQ        chan regretSample
	stop           chan struct{}
	stopOnce       sync.Once

	eventsMu sync.Mutex
	events   []RetrainEvent
}

// New builds a single-device server; the backend takes the model's device
// name. The device model must be non-nil (see Backend).
func New(lib *core.Library, model *sim.Model, opts Options) *Server {
	if lib == nil {
		panic("serve: nil library")
	}
	if model == nil {
		panic("serve: nil device model")
	}
	s, err := NewMulti([]Backend{{Device: model.Dev.Name, Lib: lib, Model: model}}, opts)
	if err != nil {
		panic("serve: " + err.Error())
	}
	return s
}

// NewMulti builds a server hosting one backend per device. The first backend
// is the default route for requests that name no device. Backends must be
// non-empty with unique, named devices and non-nil libraries and models.
func NewMulti(backends []Backend, opts Options) (*Server, error) {
	if len(backends) == 0 {
		return nil, errors.New("serve: no backends")
	}
	opts = opts.withDefaults()
	s := &Server{
		byName:         make(map[string]*backend, len(backends)),
		opts:           opts,
		metrics:        newMetrics(),
		draining:       func() bool { return false },
		regretUniverse: opts.RegretUniverse,
		stop:           make(chan struct{}),
	}
	if opts.RegretSample > 0 {
		s.regretEvery = uint64(math.Round(1 / opts.RegretSample))
		if s.regretEvery < 1 {
			s.regretEvery = 1
		}
		s.regretQ = make(chan regretSample, regretQueue)
	}
	for i, b := range backends {
		if b.Device == "" {
			return nil, fmt.Errorf("serve: backend %d has no device name", i)
		}
		if b.Lib == nil {
			return nil, fmt.Errorf("serve: backend %q has a nil library", b.Device)
		}
		if b.Model == nil {
			return nil, fmt.Errorf("serve: backend %q has a nil device model", b.Device)
		}
		if b.Lib.Unified() {
			// The backend's device feature vector must complete the unified
			// selector's width, or every dispatch would clamp to config 0.
			if _, err := b.Lib.UnifiedChooser(b.Model.Dev.Features()); err != nil {
				return nil, fmt.Errorf("serve: backend %q: %v", b.Device, err)
			}
		}
		if _, dup := s.byName[b.Device]; dup {
			return nil, fmt.Errorf("serve: duplicate device %q", b.Device)
		}
		be := &backend{
			name:       b.Device,
			window:     newShapeWindow(opts.WindowSize),
			regretHist: newValueHistogram(regretBuckets),
		}
		mix := mixOf(opts.TrainShapes)
		be.driftRef.Store(&mix)
		be.gen.Store(s.newGeneration(s.genCounter.Add(1), b.Device, b.Lib, b.Model))
		s.backends = append(s.backends, be)
		s.byName[b.Device] = be
	}
	if s.regretQ != nil {
		go s.regretWorker()
	}
	if opts.MaintainInterval > 0 {
		go s.maintainLoop(opts.MaintainInterval)
	}
	return s, nil
}

// NewUnified builds a server where every device backend dispatches through
// one unified (device-feature-augmented) library — the follow-up paper's
// "one artifact for every device" deployment. Each model contributes a
// backend named after its device; at dispatch the backend appends its
// device's feature vector to the request shape, so per-device answers come
// from the single shared selector while metrics stay per-device as in
// NewMulti.
func NewUnified(lib *core.Library, models []*sim.Model, opts Options) (*Server, error) {
	if lib == nil {
		return nil, errors.New("serve: nil library")
	}
	if !lib.Unified() {
		return nil, fmt.Errorf("serve: NewUnified needs a unified library; %q dispatches on shape features only", lib.SelectorName())
	}
	if len(models) == 0 {
		return nil, errors.New("serve: no device models")
	}
	backends := make([]Backend, len(models))
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("serve: device model %d is nil", i)
		}
		backends[i] = Backend{Device: m.Dev.Name, Lib: lib, Model: m}
	}
	return NewMulti(backends, opts)
}

// Close stops the server's background closed-loop goroutines (the regret
// measurement worker and the maintenance loop). Idempotent. The HTTP
// handlers keep serving after Close — only background measurement and
// adaptation stop — so it is safe to call at the start of a graceful drain.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// SetDrainCheck installs the callback healthz consults: when it reports
// true, /healthz returns 503 so load balancers stop routing here while
// in-flight requests drain.
func (s *Server) SetDrainCheck(f func() bool) {
	if f != nil {
		s.draining = f
	}
}

// Library exposes the default backend's current library (for offline/online
// agreement checks).
func (s *Server) Library() *core.Library { return s.backends[0].gen.Load().lib }

// Devices lists the hosted device names; the first is the default route.
func (s *Server) Devices() []string {
	names := make([]string, len(s.backends))
	for i, be := range s.backends {
		names[i] = be.name
	}
	return names
}

// Generation reports the named backend's current generation id (empty =
// default backend).
func (s *Server) Generation(device string) (uint64, error) {
	be, err := s.backend(device)
	if err != nil {
		return 0, err
	}
	return be.gen.Load().id, nil
}

// backend resolves a request's device name; empty selects the default.
func (s *Server) backend(name string) (*backend, error) {
	if name == "" {
		return s.backends[0], nil
	}
	if be, ok := s.byName[name]; ok {
		return be, nil
	}
	return nil, fmt.Errorf("unknown device %q (serving: %s)", name, strings.Join(s.Devices(), ", "))
}

// Decision is one answer: the chosen configuration for a shape. Generation
// identifies the library epoch that produced it. Every answer, from selectd
// or from a cluster router serving the same artifact, is the selector's
// choice for that generation.
type Decision struct {
	Device     string `json:"device"`
	Shape      string `json:"shape"`
	Config     string `json:"config"`
	Index      int    `json:"index"`
	KernelID   string `json:"kernel_id"`
	Generation uint64 `json:"generation"`
}

// selection answers one shape against gen and feeds the closed loop. It is
// the one decision path — select, batch and Decide all take it — and it is a
// compiled-selector walk plus strings rendered once per generation, so it
// allocates nothing and can neither block nor fail. Shape is left empty for
// the caller to fill or render.
func (s *Server) selection(be *backend, gen *generation, shape gemm.Shape) Decision {
	idx := gen.choose(shape)
	s.account(be, gen, shape, idx)
	return Decision{
		Device:     gen.device,
		Config:     gen.configs[idx],
		Index:      idx,
		KernelID:   gen.kernelIDs[idx],
		Generation: gen.id,
	}
}

// Decide answers one shape on one device backend (empty device selects the
// default) over the same decision path POST /v1/select takes, for callers
// that ask in-process with no listener. It fails only for an unknown device
// or an invalid shape, and allocates only the decision's shape string, which
// the HTTP handler renders straight into its response instead.
func (s *Server) Decide(device string, shape gemm.Shape) (Decision, error) {
	be, err := s.backend(device)
	if err != nil {
		return Decision{}, err
	}
	if err := shape.Validate(); err != nil {
		return Decision{}, err
	}
	d := s.selection(be, be.gen.Load(), shape)
	d.Shape = shape.String()
	return d, nil
}

// ---------------------------------------------------------------------------
// HTTP layer
// ---------------------------------------------------------------------------

// shapeRequest is the wire form of one GEMM shape, optionally routed to a
// named device backend.
type shapeRequest struct {
	M      int    `json:"m"`
	K      int    `json:"k"`
	N      int    `json:"n"`
	Device string `json:"device,omitempty"`
}

type batchShape struct {
	M int `json:"m"`
	K int `json:"k"`
	N int `json:"n"`
}

type batchRequest struct {
	Device string       `json:"device,omitempty"`
	Shapes []batchShape `json:"shapes"`
}

type batchResponse struct {
	Results []Decision `json:"results"`
}

type configsResponse struct {
	Device     string   `json:"device"`
	Selector   string   `json:"selector"`
	Generation uint64   `json:"generation"`
	Count      int      `json:"count"`
	Configs    []string `json:"configs"`
	KernelIDs  []string `json:"kernel_ids"`
}

type deviceInfo struct {
	Name     string `json:"name"`
	Selector string `json:"selector"`
	Configs  int    `json:"configs"`
}

type devicesResponse struct {
	Default string       `json:"default"`
	Devices []deviceInfo `json:"devices"`
}

type reloadRequest struct {
	Device string `json:"device,omitempty"`
}

type reloadResponse struct {
	Device     string `json:"device"`
	Generation uint64 `json:"generation"`
	Selector   string `json:"selector"`
	Configs    int    `json:"configs"`
}

type healthzBackend struct {
	Device       string `json:"device"`
	Generation   uint64 `json:"generation"`
	Selector     string `json:"selector"`
	Configs      int    `json:"configs"`
	Compiled     bool   `json:"compiled_selector"`
	WarmComplete bool   `json:"warm_complete"` // always true: nothing warms, so readiness pollers never wait
}

type healthzResponse struct {
	Status   string           `json:"status"`
	Backends []healthzBackend `json:"backends"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the daemon's full HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/select", s.instrument("select", s.handleSelect))
	mux.HandleFunc("POST /v1/select/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("POST /v1/reload", s.instrument("reload", s.handleReload))
	mux.HandleFunc("GET /v1/configs", s.instrument("configs", s.handleConfigs))
	mux.HandleFunc("GET /v1/devices", s.instrument("devices", s.handleDevices))
	mux.HandleFunc("GET /v1/library", s.instrument("library", s.handleLibrary))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// statusWriter records the status code a handler commits. Writers are
// pooled: one is borrowed per request and returned after accounting, so
// instrumentation itself stays off the allocator.
type statusWriter struct {
	http.ResponseWriter
	code int
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with counter/latency accounting: every response
// is counted and observed. The endpoint's metrics are resolved once at mux
// construction, not per request through the registry mutex.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	e := s.metrics.endpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.code = w, http.StatusOK
		h(sw, r)
		e.observe(sw.code, time.Since(start))
		sw.ResponseWriter = nil
		swPool.Put(sw)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds is the back-off hint stamped on the draining /healthz
// 503: a drain rotating the instance out is transient, so one second is long
// enough for a poller to stop hammering it and short enough to notice a
// replacement promptly.
const retryAfterSeconds = "1"

// writeBodyError answers a body read or parse failure as requestError maps
// it.
func writeBodyError(w http.ResponseWriter, err error) {
	code, body := requestError(err)
	writeRawJSON(w, code, body)
}

// handleSelect is the hot path. A well-formed body runs allocation-free:
// pooled body buffer, parseSelect's hand-rolled scan, map-keyed backend
// lookup, the compiled selector, append encoding into the same pooled buffer.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	bp := bufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		bufPool.Put(bp)
	}()
	body, err := readBody(w, r, buf[:cap(buf)])
	buf = body[:0]
	var shape gemm.Shape
	var device []byte // aliases body; consumed before buf is reused
	if err == nil {
		shape, device, err = parseSelect(body)
	}
	if err != nil {
		writeBodyError(w, err)
		return
	}
	be, ok := s.backends[0], true
	if len(device) > 0 {
		if be, ok = s.byName[string(device)]; !ok {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("unknown device %q (serving: %s)", device, strings.Join(s.Devices(), ", ")),
			})
			return
		}
	}

	d := s.selection(be, be.gen.Load(), shape)
	buf = appendSelection(buf, &d, shape)
	buf = append(buf, '\n')
	writeRawJSON(w, http.StatusOK, buf)
}

// handleBatch answers every shape of a batch with the selector's choice from
// one generation, append-encoded through the buffer pool instead of running
// the reflection encoder over up to MaxBatch decisions.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	bp := bufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		bufPool.Put(bp)
	}()
	body, err := readBody(w, r, buf[:cap(buf)])
	buf = body[:0]
	var device string
	var shapes []gemm.Shape
	if err == nil {
		device, shapes, err = parseBatch(body)
	}
	if err != nil {
		writeBodyError(w, err)
		return
	}
	be, err := s.backend(device)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	gen := be.gen.Load()
	results := make([]Decision, len(shapes))
	for i, sh := range shapes {
		results[i] = s.selection(be, gen, sh)
		results[i].Shape = sh.String()
	}
	buf = appendBatch(buf, results)
	buf = append(buf, '\n')
	writeRawJSON(w, http.StatusOK, buf)
}

// handleReload swaps the named backend (empty = default) onto a fresh
// library obtained from the installed ReloadSource. An empty body selects
// the default backend.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if err := decodeBody(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeBodyError(w, err)
		return
	}
	be, err := s.backend(req.Device)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if s.reloadSource == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no reload source configured"})
		return
	}
	// Single-flight: overlapping reload requests for the same backend
	// coalesce onto one leader. Without this, N concurrent POSTs race to
	// build N generations, N−1 of which are displaced immediately. Each
	// extra build re-reads the artifact — or, for a device served without
	// -library, retrains it in process, pricing the whole dataset — and
	// compiles and verifies its chooser, and each one burns a generation id.
	// Overlapping operator calls and redundant deploy hooks make this race
	// routine.
	call, leader := be.joinReload()
	if leader {
		func() {
			defer be.finishReload(call)
			lib, model, err := s.reloadSource(be.name)
			if err != nil {
				call.err = fmt.Errorf("reload source for %q: %v", be.name, err)
				return
			}
			genID, err := s.Reload(be.name, lib, model)
			if err != nil {
				call.err = err
				return
			}
			call.genID = genID
			call.name = lib.SelectorName()
			call.cfgs = len(lib.Configs)
		}()
	} else {
		<-call.done
	}
	if call.err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: call.err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{
		Device:     be.name,
		Generation: call.genID,
		Selector:   call.name,
		Configs:    call.cfgs,
	})
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	be, err := s.backend(r.URL.Query().Get("device"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// The body is immutable per generation and prerendered at reload time.
	writeRawJSON(w, http.StatusOK, be.gen.Load().configsJSON)
}

// GenerationHeader carries the generation of the artifact a GET /v1/library
// body holds.
const GenerationHeader = "X-Generation"

// handleLibrary serves a backend's current artifact (?device=, empty = the
// default backend) exactly as selectd -save writes it, so the body is itself
// a deployable -library file; a unified backend serves its unified artifact.
// Body and GenerationHeader come from one generation, so a reload racing the
// request can never pair one generation's id with another's artifact.
func (s *Server) handleLibrary(w http.ResponseWriter, r *http.Request) {
	be, err := s.backend(r.URL.Query().Get("device"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	gen := be.gen.Load()
	tag := be.name
	if gen.lib.Unified() {
		tag = "" // a unified artifact serves any device, as SaveUnifiedLibrary writes it
	}
	var b bytes.Buffer
	if err := core.SaveLibraryForDevice(&b, gen.lib, tag); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set(GenerationHeader, strconv.FormatUint(gen.id, 10))
	writeRawJSON(w, http.StatusOK, b.Bytes())
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request) {
	resp := devicesResponse{Default: s.backends[0].name}
	for _, be := range s.backends {
		gen := be.gen.Load()
		resp.Devices = append(resp.Devices, deviceInfo{
			Name:     be.name,
			Selector: gen.lib.SelectorName(),
			Configs:  len(gen.lib.Configs),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz keeps the load-balancer contract — 200 healthy, 503
// draining — while the body reports per-backend detail: generation, selector
// and whether it is compiled.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := healthzResponse{Status: "ok", Backends: make([]healthzBackend, len(s.backends))}
	for i, be := range s.backends {
		gen := be.gen.Load()
		resp.Backends[i] = healthzBackend{
			Device:       be.name,
			Generation:   gen.id,
			Selector:     gen.lib.SelectorName(),
			Configs:      len(gen.lib.Configs),
			Compiled:     gen.compiled,
			WarmComplete: true,
		}
	}
	code := http.StatusOK
	if s.draining() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
		// Draining is the canonical transient 503: the instance is rotating
		// out, so tell pollers when to look again.
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	stats := make([]backendStats, len(s.backends))
	for i, be := range s.backends {
		gen := be.gen.Load()
		st := backendStats{
			device:          be.name,
			infoLine:        gen.infoLine,
			generation:      gen.id,
			compiled:        gen.compiled,
			decisions:       be.decisions.Load(),
			sampled:         be.sampled.Load(),
			unsampled:       be.unsampled.Load(),
			regretDropped:   be.regretDropped.Load(),
			regret:          be.regretHist.snapshot(),
			driftScore:      be.driftScore(),
			retrainPromoted: be.retrainPromoted.Load(),
			retrainRejected: be.retrainRejected.Load(),
			retrainErrors:   be.retrainErrors.Load(),
		}
		if be.window != nil {
			st.windowSize = be.window.size()
		}
		stats[i] = st
	}
	var b strings.Builder
	s.metrics.render(&b, stats)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, b.String())
}

// decodeBody parses a JSON request body, rejecting unknown fields and
// trailing garbage so malformed clients fail loudly. The size cap goes
// through http.MaxBytesReader with the real response writer, so an oversized
// body closes the connection after the error instead of letting the client
// stream the rest of an 8 MiB+ payload into a dead request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return err
		}
		return fmt.Errorf("decoding request body: %w", err)
	}
	if dec.More() {
		return errors.New("trailing data after request body")
	}
	return nil
}
