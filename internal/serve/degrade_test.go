package serve

import (
	"math"
	"net/http"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

// The fallback config must match the offline best-geomean computation
// exactly, across devices and library sizes.
func TestFallbackMatchesOfflineGeomean(t *testing.T) {
	shapes := reloadShapes
	cases := []struct {
		spec device.Spec
		n    int
	}{
		{device.R9Nano(), 4},
		{device.R9Nano(), 8},
		{device.IntegratedGen9(), 4},
		{device.IntegratedGen9(), 6},
		{device.EmbeddedMaliG72(), 4},
	}
	for _, tc := range cases {
		model := sim.New(tc.spec)
		ds := dataset.Build(model, shapes, gemm.AllConfigs()[:120])
		lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, tc.n, 42)
		srv := New(lib, model, Options{FallbackShapes: shapes})

		// Offline: argmax over configs of the geometric-mean GFLOPS.
		best, bestScore := 0, math.Inf(-1)
		for i, cfg := range lib.Configs {
			sum := 0.0
			for _, s := range shapes {
				sum += math.Log(model.GFLOPS(cfg, s))
			}
			if score := sum / float64(len(shapes)); score > bestScore {
				best, bestScore = i, score
			}
		}

		fb := *srv.backends[0].gen.Load().fb.Load()
		if fb.Index != best {
			t.Errorf("%s n=%d: fallback index %d, offline geomean best %d", tc.spec.Name, tc.n, fb.Index, best)
		}
		if fb.Config != lib.Configs[best].String() {
			t.Errorf("%s n=%d: fallback config %q, want %q", tc.spec.Name, tc.n, fb.Config, lib.Configs[best])
		}
		if !fb.Degraded || fb.Generation == 0 {
			t.Errorf("%s n=%d: fallback template %+v not marked degraded/stamped", tc.spec.Name, tc.n, fb)
		}
	}
}

// The degraded series must appear on the metrics page with device and reason
// labels.
func TestDegradedMetricsSeries(t *testing.T) {
	srv, ts := testServer(t, Options{MaxInFlight: 1})
	be := srv.backends[0]
	rel, ok := be.acquire()
	if !ok {
		t.Fatal("could not take the only token")
	}
	resp := postJSON(t, ts.URL+"/v1/select/batch", batchRequest{Shapes: []batchShape{{M: 5, K: 5, N: 5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()
	rel()

	page := metricsPage(t, ts)
	for _, metric := range []string{
		`selectd_degraded_total{device="amd-r9-nano",reason="budget"}`,
		`selectd_generation{device="amd-r9-nano"}`,
		`selectd_budget_capacity{device="amd-r9-nano"}`,
	} {
		metricValue(t, page, metric) // fails the test if the series is absent
	}
	if got := metricValue(t, page, `selectd_degraded_total{device="amd-r9-nano",reason="budget"}`); got != 1 {
		t.Errorf("degraded(budget) %v, want 1", got)
	}
}
