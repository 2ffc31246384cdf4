package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// fleetShapes is the shape mix fleet tests send, spread across the shape
// space.
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
// which serves the artifact it pulled from them.
type testFleet struct {
	router *Router
	rts    *httptest.Server
	srvs   []*serve.Server
	reps   []*httptest.Server
	model  *sim.Model
	lib    *core.Library
}

// newTestFleet spins up n default-option replicas. wrap, when non-nil, may
// interpose a middleware on replica i's handler (delays, outages);
// ropts.Replicas is filled in here.
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
	t.Cleanup(func() {
		for _, ts := range f.reps {
			ts.Close()
		}
		for _, srv := range f.srvs {
			srv.Close()
		}
	})
	ropts.Replicas = replicas
	router, err := New(context.Background(), ropts)
	if err != nil {
		t.Fatal(err)
	}
	f.router = router
	f.rts = httptest.NewServer(router.Handler())
	t.Cleanup(func() {
		f.rts.Close()
		router.Close()
	})
	return f
}

func replicaName(i int) string {
	return "replica-" + string(rune('a'+i))
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

// The router runs no maintenance pass, so its engine keeps no drift window:
// one would collect every select the router answers and never score it.
func TestRouterKeepsNoDriftWindow(t *testing.T) {
	f := newTestFleet(t, 1, Options{}, nil)
	for i := 0; i < 240; i++ {
		if code, _ := routerSelect(t, f.rts.URL, fleetShapes[i%len(fleetShapes)]); code != http.StatusOK {
			t.Fatalf("select %d: status %d", i, code)
		}
	}
	resp, err := http.Get(f.rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("selectd_window_size{device=%q} 0\n", f.model.Dev.Name)
	if !strings.Contains(string(page), want) {
		t.Fatalf("router /metrics lacks %q after 240 selects:\n%s", want, page)
	}
}
