package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// fleetShapes is the shape mix fleet tests route; spread across several log2
// buckets so a small fleet still sees multi-shard traffic.
var fleetShapes = []gemm.Shape{
	{M: 1, K: 4096, N: 1000}, {M: 16, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64},
	{M: 784, K: 1152, N: 256}, {M: 196, K: 2304, N: 512}, {M: 12544, K: 27, N: 32},
	{M: 49, K: 960, N: 160}, {M: 3136, K: 32, N: 192}, {M: 100352, K: 3, N: 64},
	{M: 784, K: 24, N: 144}, {M: 196, K: 512, N: 512}, {M: 64, K: 25088, N: 4096},
}

func buildFleetLib(t testing.TB, model *sim.Model, n int) *core.Library {
	t.Helper()
	ds := dataset.Build(model, fleetShapes, gemm.AllConfigs()[:120])
	return core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, n, 42)
}

// testFleet is N identical single-device selectd replicas behind one router,
// plus the router's own local fallback engine built from the same artifact.
type testFleet struct {
	router *Router
	rts    *httptest.Server
	srvs   []*serve.Server
	reps   []*httptest.Server
	local  *serve.Server
	model  *sim.Model
	lib    *core.Library
}

// newTestFleet spins up n default-option replicas. wrap, when non-nil, may
// interpose a middleware on replica i's handler (delays, outages);
// ropts.Replicas/Local are filled in here.
func newTestFleet(t testing.TB, n int, ropts Options, wrap func(i int, h http.Handler) http.Handler) *testFleet {
	t.Helper()
	model := sim.New(device.R9Nano())
	lib := buildFleetLib(t, model, 6)

	f := &testFleet{model: model, lib: lib}
	replicas := make([]*Replica, n)
	for i := 0; i < n; i++ {
		srv := serve.New(lib, model, serve.Options{})
		h := http.Handler(srv.Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		f.srvs = append(f.srvs, srv)
		f.reps = append(f.reps, ts)
		replicas[i] = NewReplica(replicaName(i), ts.URL, nil)
	}
	f.local = serve.New(lib, model, serve.Options{})
	ropts.Replicas = replicas
	ropts.Local = f.local
	router, err := New(ropts)
	if err != nil {
		t.Fatal(err)
	}
	f.router = router
	f.rts = httptest.NewServer(router.Handler())

	t.Cleanup(func() {
		f.rts.Close()
		router.Close()
		for _, ts := range f.reps {
			ts.Close()
		}
		for _, srv := range f.srvs {
			srv.Close()
		}
		f.local.Close()
	})
	return f
}

func replicaName(i int) string {
	return "replica-" + string(rune('a'+i))
}

// shapeWithPrimary finds a fleet shape whose all-up ring primary is the given
// replica index.
func shapeWithPrimary(t testing.TB, r *Router, device string, primary int) gemm.Shape {
	t.Helper()
	for _, s := range fleetShapes {
		if r.ring.candidates(device, s)[0] == primary {
			return s
		}
	}
	t.Fatalf("no fleet shape has primary %d", primary)
	return gemm.Shape{}
}

// routerSelect posts one select through the router and decodes the decision.
func routerSelect(t testing.TB, url string, shape gemm.Shape) (int, serve.Decision) {
	t.Helper()
	body, _ := json.Marshal(map[string]int{"m": shape.M, "k": shape.K, "n": shape.N})
	resp, err := http.Post(url+"/v1/select", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d serve.Decision
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, d
}
