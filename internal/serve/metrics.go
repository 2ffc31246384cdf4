package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is a dependency-free registry in the Prometheus text exposition
// format: per-endpoint request counters broken down by status code,
// per-endpoint latency histograms, and per-device generation, decision and
// closed-loop series. Everything is atomics on the hot path; rendering takes
// the slow path.

// latencyBuckets are the histogram upper bounds in seconds. Selection is
// microseconds (a compiled-tree walk behind the HTTP stack), so the buckets
// concentrate there and fan out to catch stragglers.
var latencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1,
}

type histogram struct {
	buckets []atomic.Uint64 // one per bound, plus +Inf at the end
	count   atomic.Uint64
	sumNano atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNano.Add(d.Nanoseconds())
}

// regretBuckets are the selectd_regret histogram upper bounds. Regret lives
// in [0, 1] and a working selector concentrates near 0 — the le="0" bucket
// exists so "picked the per-shape optimum exactly" is countable on its own —
// while the coarse upper bounds catch a selector losing to distribution
// shift.
var regretBuckets = []float64{0, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.15, 0.25, 0.5}

// valueHistogram is histogram's unitless sibling for dimensionless samples
// (regret ratios): atomic buckets over arbitrary bounds plus an exact
// CAS-accumulated float64 sum, so mean regret comparisons in tests are not
// subject to integer truncation.
type valueHistogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // one per bound, plus +Inf at the end
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newValueHistogram(bounds []float64) *valueHistogram {
	return &valueHistogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *valueHistogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	// count is incremented last so a reader that sees count == sampled also
	// sees every bucket/sum update from those observations.
	h.count.Add(1)
}

// snapshot copies the histogram for rendering.
func (h *valueHistogram) snapshot() histSnapshot {
	s := histSnapshot{buckets: make([]uint64, len(h.buckets)), count: h.count.Load(), sum: math.Float64frombits(h.sumBits.Load())}
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
	}
	return s
}

type histSnapshot struct {
	buckets []uint64
	count   uint64
	sum     float64
}

// renderValueHist writes one device-labelled histogram in exposition format.
func renderValueHist(b *strings.Builder, name, device string, bounds []float64, h histSnapshot) {
	var cum uint64
	for i, bound := range bounds {
		cum += h.buckets[i]
		fmt.Fprintf(b, "%s_bucket{device=%q,le=\"%g\"} %d\n", name, device, bound, cum)
	}
	cum += h.buckets[len(bounds)]
	fmt.Fprintf(b, "%s_bucket{device=%q,le=\"+Inf\"} %d\n", name, device, cum)
	fmt.Fprintf(b, "%s_sum{device=%q} %.9f\n", name, device, h.sum)
	fmt.Fprintf(b, "%s_count{device=%q} %d\n", name, device, h.count)
}

// endpointMetrics tracks one endpoint's request counts and latencies.
type endpointMetrics struct {
	mu      sync.Mutex
	byCode  map[int]uint64
	latency *histogram
}

func newEndpointMetrics() *endpointMetrics {
	return &endpointMetrics{byCode: make(map[int]uint64), latency: newHistogram()}
}

func (e *endpointMetrics) observe(code int, d time.Duration) {
	e.mu.Lock()
	e.byCode[code]++
	e.mu.Unlock()
	e.latency.observe(d)
}

// metrics is the server-wide registry of endpoint series; per-device series
// live on the backends and are snapshotted into backendStats at render time.
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	started   time.Time
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics), started: time.Now()}
}

func (m *metrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.endpoints[name]
	if !ok {
		e = newEndpointMetrics()
		m.endpoints[name] = e
	}
	return e
}

// backendStats is one device backend's snapshot for rendering: its selector
// name, library generation and closed-loop series.
type backendStats struct {
	device     string
	infoLine   string // pre-rendered selectd_info line, built per generation
	generation uint64
	compiled   bool

	// Closed-loop series (regret.go, retrain.go).
	decisions       uint64
	sampled         uint64
	unsampled       uint64
	regretDropped   uint64
	regret          histSnapshot
	driftScore      float64
	windowSize      int
	retrainPromoted uint64
	retrainRejected uint64
	retrainErrors   uint64
}

// render writes the registry in Prometheus text format, with one info line
// and one set of per-device series per backend. The HELP/TYPE headers are
// constants and the info lines are pre-rendered per generation; only the
// sample lines are formatted per scrape.
func (m *metrics) render(b *strings.Builder, backends []backendStats) {
	b.WriteString("# HELP selectd_info Serving daemon metadata, one line per device backend.\n")
	b.WriteString("# TYPE selectd_info gauge\n")
	for _, be := range backends {
		b.WriteString(be.infoLine)
	}

	b.WriteString("# HELP selectd_uptime_seconds Time since the server started.\n")
	b.WriteString("# TYPE selectd_uptime_seconds gauge\n")
	fmt.Fprintf(b, "selectd_uptime_seconds %.3f\n", time.Since(m.started).Seconds())

	b.WriteString("# HELP selectd_requests_total Requests served, by endpoint and status code.\n")
	b.WriteString("# TYPE selectd_requests_total counter\n")
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		e := m.endpoint(name)
		e.mu.Lock()
		codes := make([]int, 0, len(e.byCode))
		for c := range e.byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(b, "selectd_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, c, e.byCode[c])
		}
		e.mu.Unlock()
	}

	b.WriteString("# HELP selectd_request_seconds Full-service request latency histogram, by endpoint.\n")
	b.WriteString("# TYPE selectd_request_seconds histogram\n")
	for _, name := range names {
		e := m.endpoint(name)
		var cum uint64
		for i, bound := range latencyBuckets {
			cum += e.latency.buckets[i].Load()
			fmt.Fprintf(b, "selectd_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", name, bound, cum)
		}
		cum += e.latency.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(b, "selectd_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(b, "selectd_request_seconds_sum{endpoint=%q} %.9f\n", name, float64(e.latency.sumNano.Load())/1e9)
		fmt.Fprintf(b, "selectd_request_seconds_count{endpoint=%q} %d\n", name, e.latency.count.Load())
	}

	b.WriteString("# HELP selectd_generation Library generation currently serving, by device.\n")
	b.WriteString("# TYPE selectd_generation gauge\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_generation{device=%q} %d\n", be.device, be.generation)
	}

	b.WriteString("# HELP selectd_compiled_selector Whether the serving generation uses a compiled selector (1) or the interpreted model (0), by device.\n")
	b.WriteString("# TYPE selectd_compiled_selector gauge\n")
	for _, be := range backends {
		v := 0
		if be.compiled {
			v = 1
		}
		fmt.Fprintf(b, "selectd_compiled_selector{device=%q} %d\n", be.device, v)
	}

	b.WriteString("# HELP selectd_decisions_total Decisions served, by device.\n")
	b.WriteString("# TYPE selectd_decisions_total counter\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_decisions_total{device=%q} %d\n", be.device, be.decisions)
	}
	b.WriteString("# HELP selectd_decisions_sampled_total Decisions stamped for background regret measurement, by device.\n")
	b.WriteString("# TYPE selectd_decisions_sampled_total counter\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_decisions_sampled_total{device=%q} %d\n", be.device, be.sampled)
	}
	b.WriteString("# HELP selectd_decisions_unsampled_total Decisions not selected for regret measurement, by device.\n")
	b.WriteString("# TYPE selectd_decisions_unsampled_total counter\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_decisions_unsampled_total{device=%q} %d\n", be.device, be.unsampled)
	}
	b.WriteString("# HELP selectd_regret_dropped_total Regret samples dropped because the measurement queue was full, by device.\n")
	b.WriteString("# TYPE selectd_regret_dropped_total counter\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_regret_dropped_total{device=%q} %d\n", be.device, be.regretDropped)
	}

	b.WriteString("# HELP selectd_regret Sampled decision regret vs the per-shape optimum of the config universe (1 - achieved/best), by device.\n")
	b.WriteString("# TYPE selectd_regret histogram\n")
	for _, be := range backends {
		renderValueHist(b, "selectd_regret", be.device, regretBuckets, be.regret)
	}

	b.WriteString("# HELP selectd_drift_score Population-stability drift of the live shape mix vs the training mix, by device.\n")
	b.WriteString("# TYPE selectd_drift_score gauge\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_drift_score{device=%q} %.9f\n", be.device, be.driftScore)
	}
	b.WriteString("# HELP selectd_window_size Served shapes currently held in the drift window, by device.\n")
	b.WriteString("# TYPE selectd_window_size gauge\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_window_size{device=%q} %d\n", be.device, be.windowSize)
	}

	b.WriteString("# HELP selectd_retrain_promoted_total Shadow-retrained candidates promoted to serving, by device.\n")
	b.WriteString("# TYPE selectd_retrain_promoted_total counter\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_retrain_promoted_total{device=%q} %d\n", be.device, be.retrainPromoted)
	}
	b.WriteString("# HELP selectd_retrain_rejected_total Shadow-retrained candidates rejected by a verification gate, by device.\n")
	b.WriteString("# TYPE selectd_retrain_rejected_total counter\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_retrain_rejected_total{device=%q} %d\n", be.device, be.retrainRejected)
	}
	b.WriteString("# HELP selectd_retrain_errors_total Shadow-retrain attempts that failed before gating, by device.\n")
	b.WriteString("# TYPE selectd_retrain_errors_total counter\n")
	for _, be := range backends {
		fmt.Fprintf(b, "selectd_retrain_errors_total{device=%q} %d\n", be.device, be.retrainErrors)
	}
}
