package serve

import (
	"math"
	"testing"
	"time"

	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

// waitSettled blocks until every regret sample taken so far has been measured
// or dropped — the deterministic replacement for sleeping while the background
// worker drains.
func waitSettled(t testing.TB, be *backend) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !be.regretSettled() {
		if time.Now().After(deadline) {
			t.Fatalf("regret queue never drained: sampled %d, measured %d, dropped %d",
				be.sampled.Load(), be.regretHist.count.Load(), be.regretDropped.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// Accounting invariants: every decision is counted exactly once as sampled or
// unsampled, the deterministic 1-in-N schedule samples exactly decisions/N of
// them, and once the queue drains every sample is either measured or dropped —
// nothing vanishes between the request path and the histograms.
func TestRegretAccountingInvariants(t *testing.T) {
	model := sim.New(device.R9Nano())
	srv := New(buildLib(t, model, 6), model, Options{
		RegretSample:   0.25,
		RegretUniverse: gemm.AllConfigs()[:120],
	})
	defer srv.Close()
	be := srv.backends[0]

	const n = 40
	for i := 0; i < n; i++ {
		if _, err := srv.Decide(be.name, reloadShapes[i%len(reloadShapes)]); err != nil {
			t.Fatal(err)
		}
	}
	if got := be.decisions.Load(); got != n {
		t.Fatalf("decisions %d, want %d", got, n)
	}
	s, u := be.sampled.Load(), be.unsampled.Load()
	if s+u != n {
		t.Fatalf("sampled %d + unsampled %d != %d decisions", s, u, n)
	}
	if s != n/4 {
		t.Fatalf("sampled %d of %d decisions at rate 0.25, want exactly %d", s, n, n/4)
	}
	waitSettled(t, be)
	if measured := be.regretHist.count.Load(); measured+be.regretDropped.Load() != s {
		t.Fatalf("measured %d + dropped %d != sampled %d", measured, be.regretDropped.Load(), s)
	}
	if got := be.window.size(); got != n {
		t.Fatalf("window holds %d shapes after %d decisions", got, n)
	}
}

// Regret is bounded to [0, 1] for arbitrary served configs, and exactly 0 —
// not merely small — when the served config is the universe's per-shape
// argmax: the batch pricer is bit-identical to the scalar model, so the ratio
// is x/x.
func TestRegretNonNegativeAndZeroAtOptimum(t *testing.T) {
	model := sim.New(device.R9Nano())
	universe := gemm.AllConfigs()[:120]
	srv := New(buildLib(t, model, 6), model, Options{
		RegretSample:   1,
		RegretUniverse: universe,
	})
	defer srv.Close()
	be := srv.backends[0]
	gen := be.gen.Load()

	for _, sh := range reloadShapes {
		best, bestV := 0, math.Inf(-1)
		for i, cfg := range universe {
			if v := model.GFLOPS(cfg, sh); v > bestV {
				best, bestV = i, v
			}
		}
		if r := srv.measureRegret(regretSample{be: be, gen: gen, shape: sh, cfg: universe[best]}); r != 0 {
			t.Errorf("shape %v: regret %v for the universe optimum, want exactly 0", sh, r)
		}
		for i := 0; i < len(universe); i += 17 {
			r := srv.measureRegret(regretSample{be: be, gen: gen, shape: sh, cfg: universe[i]})
			if r < 0 || r > 1 {
				t.Errorf("shape %v config %d: regret %v out of [0,1]", sh, i, r)
			}
		}
	}
}

// A window drawn from the training mix itself must score drift exactly 0: the
// proportions match term for term, and driftPSI skips matched terms instead of
// accumulating rounding noise.
func TestDriftZeroOnTrainingMix(t *testing.T) {
	ref := mixOf(reloadShapes)
	var win []gemm.Shape
	for i := 0; i < 7; i++ {
		win = append(win, reloadShapes...)
	}
	if got := driftPSI(ref, win); got != 0 {
		t.Fatalf("drift %v on a window drawn from the training mix, want exactly 0", got)
	}
	// Empty sides are vacuously stable, never NaN.
	if got := driftPSI(ref, nil); got != 0 {
		t.Fatalf("drift %v on an empty window", got)
	}
	if got := driftPSI(shapeMix{}, reloadShapes); got != 0 {
		t.Fatalf("drift %v against an empty reference", got)
	}
}

// PSI is non-negative for arbitrary live mixes and grows past the
// retrain-worthy threshold when the window is dominated by shapes the
// reference has never seen.
func TestDriftNonNegativeAndDetectsShift(t *testing.T) {
	ref := mixOf(reloadShapes)
	for take := 1; take <= len(reloadShapes); take++ {
		win := append([]gemm.Shape(nil), reloadShapes[:take]...)
		if got := driftPSI(ref, win); got < 0 {
			t.Fatalf("drift %v negative for a %d-shape subset window", got, take)
		}
	}
	if got := driftPSI(ref, shiftedShapes); got <= 0.25 {
		t.Fatalf("fully shifted window scored drift %v, want > 0.25", got)
	}
	// A half-shifted window drifts less than a fully shifted one but more
	// than none.
	half := append(append([]gemm.Shape(nil), reloadShapes...), shiftedShapes...)
	full := driftPSI(ref, shiftedShapes)
	if got := driftPSI(ref, half); got <= 0 || got >= full {
		t.Fatalf("half-shifted drift %v not in (0, %v)", got, full)
	}
}

// The window is bounded and sliding: after far more adds than capacity it
// holds exactly its capacity, and only the most recent entries — the
// round-robin sharding must not starve or double-retain any stream position.
func TestWindowSlidesAndBounds(t *testing.T) {
	const capacity = 64
	w := newShapeWindow(capacity)
	const total = 1000
	for i := 1; i <= total; i++ {
		w.add(gemm.Shape{M: i, K: 1, N: 1})
	}
	if n := w.size(); n != capacity {
		t.Fatalf("window size %d after %d adds, want %d", n, total, capacity)
	}
	snap := w.snapshot()
	if len(snap) != capacity {
		t.Fatalf("snapshot holds %d entries, want %d", len(snap), capacity)
	}
	seen := make(map[int]bool, capacity)
	for _, s := range snap {
		if s.M <= total-capacity {
			t.Errorf("stale entry M=%d survived %d adds into a %d-window", s.M, total, capacity)
		}
		if seen[s.M] {
			t.Errorf("entry M=%d retained twice", s.M)
		}
		seen[s.M] = true
	}
	if newShapeWindow(0) != nil || newShapeWindow(-3) != nil {
		t.Fatal("non-positive capacity did not disable the window")
	}
}

// Every closed-loop series is present on the metrics page with device labels,
// and the exported decision counters obey sampled + unsampled == decisions.
func TestClosedLoopMetricsSeries(t *testing.T) {
	srv, ts := testServer(t, Options{
		RegretSample:   1,
		RegretUniverse: gemm.AllConfigs()[:120],
	})
	defer srv.Close()
	be := srv.backends[0]
	for i := 0; i < 6; i++ {
		decodeResp[Decision](t, postJSON(t, ts.URL+"/v1/select", shapeRequest{M: 784, K: 1152, N: 256}))
	}
	waitSettled(t, be)
	srv.Maintain()

	page := metricsPage(t, ts)
	for _, metric := range []string{
		`selectd_generation{device="amd-r9-nano"}`,
		`selectd_decisions_total{device="amd-r9-nano"}`,
		`selectd_decisions_sampled_total{device="amd-r9-nano"}`,
		`selectd_decisions_unsampled_total{device="amd-r9-nano"}`,
		`selectd_regret_dropped_total{device="amd-r9-nano"}`,
		`selectd_regret_bucket{device="amd-r9-nano",le="0"}`,
		`selectd_regret_bucket{device="amd-r9-nano",le="+Inf"}`,
		`selectd_regret_sum{device="amd-r9-nano"}`,
		`selectd_regret_count{device="amd-r9-nano"}`,
		`selectd_drift_score{device="amd-r9-nano"}`,
		`selectd_window_size{device="amd-r9-nano"}`,
		`selectd_retrain_promoted_total{device="amd-r9-nano"}`,
		`selectd_retrain_rejected_total{device="amd-r9-nano"}`,
		`selectd_retrain_errors_total{device="amd-r9-nano"}`,
	} {
		metricValue(t, page, metric) // fails the test if the series is absent
	}
	dec := metricValue(t, page, `selectd_decisions_total{device="amd-r9-nano"}`)
	smp := metricValue(t, page, `selectd_decisions_sampled_total{device="amd-r9-nano"}`)
	uns := metricValue(t, page, `selectd_decisions_unsampled_total{device="amd-r9-nano"}`)
	if smp+uns != dec || dec != 6 {
		t.Fatalf("exported decisions %v != sampled %v + unsampled %v (want 6)", dec, smp, uns)
	}
	if count := metricValue(t, page, `selectd_regret_count{device="amd-r9-nano"}`); count != smp {
		t.Fatalf("regret count %v, want every one of %v samples measured", count, smp)
	}
	if win := metricValue(t, page, `selectd_window_size{device="amd-r9-nano"}`); win != 6 {
		t.Fatalf("window size %v, want 6", win)
	}
}
