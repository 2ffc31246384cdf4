package serve

import (
	"net/http/httptest"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/portability"
	"kernelselect/internal/sim"
)

// unifiedTestServer builds the deployable unified artifact exactly the way
// the portability study does and serves all three real devices from it.
func unifiedTestServer(t testing.TB, opts Options) (*Server, *core.Library, []device.Spec) {
	t.Helper()
	env := portability.Setup(portability.Config{
		Seed:    42,
		N:       8,
		Pruners: []core.Pruner{core.DecisionTree{}},
		Trainers: []core.SelectorTrainer{
			core.DecisionTreeSelector{},
		},
		Workers: 4,
	})
	lib, err := env.BuildUnifiedLibrary()
	if err != nil {
		t.Fatal(err)
	}
	specs := device.All()
	models := make([]*sim.Model, len(specs))
	for i, spec := range specs {
		models[i] = sim.New(spec)
	}
	srv, err := NewUnified(lib, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, lib, specs
}

func unifiedHTTPServer(t testing.TB, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// The acceptance bar for the unified artifact: every device's HTTP answer
// must agree exactly with the in-memory portability selector dispatched on
// that device's feature vector.
func TestUnifiedServingAgreesWithInMemorySelector(t *testing.T) {
	srv, lib, specs := unifiedTestServer(t, Options{})
	ts := unifiedHTTPServer(t, srv)

	shapes := []gemm.Shape{
		{M: 1, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64}, {M: 784, K: 1152, N: 256},
		{M: 49, K: 4608, N: 512}, {M: 12544, K: 27, N: 32}, {M: 196, K: 512, N: 512},
		{M: 64, K: 25088, N: 4096}, {M: 100352, K: 3, N: 64},
	}
	for _, spec := range specs {
		for _, s := range shapes {
			d := decodeResp[Decision](t, postJSON(t, ts.URL+"/v1/select",
				shapeRequest{M: s.M, K: s.K, N: s.N, Device: spec.Name}))
			if d.Device != spec.Name {
				t.Fatalf("decision for %q stamped %q", spec.Name, d.Device)
			}
			k := lib.UnifiedChooseIndex(s, spec.Features())
			if want := lib.Configs[k].String(); d.Config != want {
				t.Errorf("%s %v: served %s, in-memory selector %s", spec.Name, s, d.Config, want)
			}
		}
	}
}

// Per-device serving state stays partitioned even though every backend
// shares one selector: each device answers with its own device features, and
// the per-device metric series count only that device's decisions.
func TestUnifiedPerDeviceDecisions(t *testing.T) {
	srv, lib, specs := unifiedTestServer(t, Options{})
	ts := unifiedHTTPServer(t, srv)
	shape := gemm.Shape{M: 784, K: 1152, N: 256}
	req := shapeRequest{M: shape.M, K: shape.K, N: shape.N}

	for i, n := range []int{2, 1} {
		r := req
		r.Device = specs[i].Name
		for j := 0; j < n; j++ {
			d := decodeResp[Decision](t, postJSON(t, ts.URL+"/v1/select", r))
			if want := lib.UnifiedChooseIndex(shape, specs[i].Features()); d.Device != specs[i].Name || d.Index != want {
				t.Fatalf("%s: decision %+v, want index %d", specs[i].Name, d, want)
			}
		}
	}

	page := metricsPage(t, ts)
	for i, want := range []float64{2, 1, 0} {
		series := `selectd_decisions_total{device="` + specs[i].Name + `"}`
		if got := metricValue(t, page, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// NewUnified must refuse a shape-only library, and Reload must refuse to
// swap a unified backend onto a specialist library (and vice versa): the two
// dispatch kinds are not interchangeable.
func TestUnifiedKindMismatchesRejected(t *testing.T) {
	srv, _, specs := unifiedTestServer(t, Options{})

	model := sim.New(specs[0])
	shapes := []gemm.Shape{{M: 8, K: 8, N: 8}, {M: 64, K: 64, N: 64}, {M: 256, K: 256, N: 256}}
	ds := dataset.Build(model, shapes, gemm.AllConfigs()[:40])
	shapeOnly := core.BuildLibrary(ds, core.TopN{}, core.DecisionTreeSelector{}, 4, 42)

	if _, err := NewUnified(shapeOnly, []*sim.Model{model}, Options{}); err == nil {
		t.Error("NewUnified accepted a shape-only library")
	}
	if _, err := srv.Reload(specs[0].Name, shapeOnly, nil); err == nil {
		t.Error("unified backend reloaded onto a shape-only library")
	}
}

// A unified reload with a fresh copy of the artifact must succeed and keep
// serving the same answers.
func TestUnifiedReloadRoundTrip(t *testing.T) {
	srv, lib, specs := unifiedTestServer(t, Options{})
	shape := gemm.Shape{M: 3136, K: 64, N: 64}
	before := srv.byName[specs[0].Name].gen.Load().choose(shape)

	id, err := srv.Reload(specs[0].Name, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id < 2 {
		t.Fatalf("reload generation %d, want >= 2", id)
	}
	if after := srv.byName[specs[0].Name].gen.Load().choose(shape); after != before {
		t.Errorf("reload changed the decision: %d -> %d", before, after)
	}
}
