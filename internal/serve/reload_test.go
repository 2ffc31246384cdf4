package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

var reloadShapes = []gemm.Shape{
	{M: 1, K: 4096, N: 1000}, {M: 16, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64},
	{M: 784, K: 1152, N: 256}, {M: 196, K: 2304, N: 512}, {M: 12544, K: 27, N: 32},
	{M: 49, K: 960, N: 160}, {M: 3136, K: 32, N: 192}, {M: 100352, K: 3, N: 64},
	{M: 784, K: 24, N: 144}, {M: 196, K: 512, N: 512}, {M: 64, K: 25088, N: 4096},
}

// buildLib trains a size-n library over the reload test shapes.
func buildLib(t testing.TB, model *sim.Model, n int) *core.Library {
	t.Helper()
	ds := dataset.Build(model, reloadShapes, gemm.AllConfigs()[:120])
	return core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, n, 42)
}

// A reload must swap the library atomically: the generation bumps, the new
// library answers, and cumulative counters carry across the swap.
func TestReloadSwapsLibrary(t *testing.T) {
	model := sim.New(device.R9Nano())
	libA := buildLib(t, model, 6)
	libB := buildLib(t, model, 4)
	srv := New(libA, model, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	shape := gemm.Shape{M: 784, K: 1152, N: 256}
	req := shapeRequest{M: shape.M, K: shape.K, N: shape.N}
	first := decodeResp[Decision](t, postJSON(t, ts.URL+"/v1/select", req))
	gen1, err := srv.Generation("")
	if err != nil {
		t.Fatal(err)
	}
	if first.Generation != gen1 {
		t.Fatalf("decision stamped generation %d, server at %d", first.Generation, gen1)
	}

	before := metricsSnapshot(t, ts)
	gen2, err := srv.Reload("", libB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Fatalf("reload generation %d not after %d", gen2, gen1)
	}
	if srv.Library() != libB {
		t.Fatal("Library() still reports the old library")
	}

	d := decodeResp[Decision](t, postJSON(t, ts.URL+"/v1/select", req))
	if d.Generation != gen2 {
		t.Fatalf("post-reload decision from generation %d, want %d", d.Generation, gen2)
	}
	if d.Config != libB.Configs[d.Index].String() {
		t.Fatalf("post-reload config %q not at index %d of the new library", d.Config, d.Index)
	}
	if want := libB.Choose(shape); d.Config != want.String() {
		t.Fatalf("post-reload chose %s, offline %s", d.Config, want)
	}

	// The configs endpoint reports the new generation.
	resp, err := http.Get(ts.URL + "/v1/configs")
	if err != nil {
		t.Fatal(err)
	}
	c := decodeResp[configsResponse](t, resp)
	if c.Generation != gen2 || c.Count != len(libB.Configs) {
		t.Fatalf("configs report generation %d count %d, want %d/%d", c.Generation, c.Count, gen2, len(libB.Configs))
	}

	// Cumulative counters survive the swap: the decisions served before it
	// stay counted.
	after := metricsSnapshot(t, ts)
	assertCountersMonotonic(t, before, after)
	if n := after[`selectd_decisions_total{device="amd-r9-nano"}`]; n != 2 {
		t.Errorf("decisions %v after one pre-swap and one post-swap select, want 2", n)
	}
}

func TestReloadValidation(t *testing.T) {
	model := sim.New(device.R9Nano())
	srv := New(buildLib(t, model, 4), model, Options{})
	if _, err := srv.Reload("", nil, nil); err == nil {
		t.Error("nil library accepted")
	}
	if _, err := srv.Reload("tpu-v9", buildLib(t, model, 4), nil); err == nil {
		t.Error("unknown device accepted")
	}
}

// POST /v1/reload pulls a fresh library from the installed source; without a
// source it reports 503, and an unknown device 400.
func TestReloadEndpoint(t *testing.T) {
	model := sim.New(device.R9Nano())
	libA := buildLib(t, model, 6)
	libB := buildLib(t, model, 4)
	srv := New(libA, model, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/reload", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(`{}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no source: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	calls := 0
	srv.SetReloadSource(func(dev string) (*core.Library, *sim.Model, error) {
		calls++
		if dev != model.Dev.Name {
			return nil, nil, fmt.Errorf("unexpected device %q", dev)
		}
		return libB, nil, nil
	})

	resp = post(``) // empty body = default device
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", resp.StatusCode)
	}
	rr := decodeResp[reloadResponse](t, resp)
	if rr.Device != model.Dev.Name || rr.Configs != len(libB.Configs) || calls != 1 {
		t.Fatalf("reload response %+v (source calls %d)", rr, calls)
	}
	if srv.Library() != libB {
		t.Fatal("endpoint reload did not swap the library")
	}

	resp = post(`{"device":"tpu-v9"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown device: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	srv.SetReloadSource(func(string) (*core.Library, *sim.Model, error) {
		return nil, nil, fmt.Errorf("artifact store down")
	})
	resp = post(`{}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing source: status %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()
}

// A reload and a maintenance pass price nothing: with regret sampling and
// retraining off, a backend whose window holds shapes its model has never
// priced reloads and runs Maintain without one pricing call on its model.
func TestReloadPricesNothing(t *testing.T) {
	model := sim.New(device.R9Nano())
	libA := buildLib(t, model, 6)
	libB := buildLib(t, model, 4)
	srv := New(libA, model, Options{})
	defer srv.Close()
	for i := 0; i < 4; i++ {
		for _, sh := range shiftedShapes {
			if _, err := srv.Decide("", sh); err != nil {
				t.Fatal(err)
			}
		}
	}
	priced := model.Priced()
	if priced == 0 {
		t.Fatal("building the libraries counted no pricing, so this test would check nothing")
	}
	if _, err := srv.Reload("", libB, nil); err != nil {
		t.Fatal(err)
	}
	srv.Maintain()
	if got := model.Priced(); got != priced {
		t.Fatalf("reload and maintain priced: %d pricing calls, want 0", got-priced)
	}
}

// TestReloadUnderLoad is the acceptance check for atomic visibility: while
// client goroutines hammer /v1/select, the main goroutine reloads between
// two libraries of different sizes. Zero requests may drop, and every
// response's config must belong to the library of the generation stamped on
// it — a response mixing epochs (old index against new library, torn swap)
// fails the audit. Run under -race this doubles as the concurrent
// Reload-vs-decide race test.
func TestReloadUnderLoad(t *testing.T) {
	model := sim.New(device.R9Nano())
	libs := map[uint64]*core.Library{}
	libA := buildLib(t, model, 6)
	libB := buildLib(t, model, 4)
	srv := New(libA, model, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	gen0, _ := srv.Generation("")
	libs[gen0] = libA

	type outcome struct {
		status int
		dec    Decision
	}
	const goroutines = 8
	const perG = 40
	var wg sync.WaitGroup
	outcomes := make([][]outcome, goroutines)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s := reloadShapes[(g+i)%len(reloadShapes)]
				raw, _ := json.Marshal(shapeRequest{M: s.M, K: s.K, N: s.N})
				resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d request %d: %w", g, i, err)
					return
				}
				var o outcome
				o.status = resp.StatusCode
				err = json.NewDecoder(resp.Body).Decode(&o.dec)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d request %d decode: %w", g, i, err)
					return
				}
				outcomes[g] = append(outcomes[g], o)
			}
		}(g)
	}

	// Reload between the two libraries while the load runs.
	for i := 0; i < 12; i++ {
		lib := libA
		if i%2 == 0 {
			lib = libB
		}
		id, err := srv.Reload("", lib, nil)
		if err != nil {
			t.Fatal(err)
		}
		libs[id] = lib
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// One more swap after the storm quiesces: every cumulative series on the
	// page must keep growing, never reset with the generation.
	snap1 := metricsSnapshot(t, ts)
	if _, err := srv.Reload("", libA, nil); err != nil {
		t.Fatal(err)
	}
	assertCountersMonotonic(t, snap1, metricsSnapshot(t, ts))

	total := 0
	for g := range outcomes {
		for _, o := range outcomes[g] {
			total++
			if o.status != http.StatusOK {
				t.Fatalf("dropped request: status %d", o.status)
			}
			lib, ok := libs[o.dec.Generation]
			if !ok {
				t.Fatalf("response from unknown generation %d", o.dec.Generation)
			}
			if o.dec.Index < 0 || o.dec.Index >= len(lib.Configs) {
				t.Fatalf("index %d out of range for generation %d (%d configs)",
					o.dec.Index, o.dec.Generation, len(lib.Configs))
			}
			if o.dec.Config != lib.Configs[o.dec.Index].String() {
				t.Fatalf("generation %d response config %q does not match its library",
					o.dec.Generation, o.dec.Config)
			}
		}
	}
	if total != goroutines*perG {
		t.Fatalf("%d responses for %d requests", total, goroutines*perG)
	}
}

// Overlapping POST /v1/reload requests must coalesce into one flight: the
// source runs once, one generation is built, and every caller answers with
// that same generation. Before single-flight, a reload storm (overlapping
// operator calls, a misfiring deploy hook) raced to build N generations and
// discarded N-1 of them.
func TestReloadSingleFlight(t *testing.T) {
	model := sim.New(device.R9Nano())
	libA := buildLib(t, model, 6)
	libB := buildLib(t, model, 4)
	srv := New(libA, model, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var calls atomic.Int32
	gate := make(chan struct{})
	srv.SetReloadSource(func(string) (*core.Library, *sim.Model, error) {
		calls.Add(1)
		<-gate
		return libB, nil, nil
	})

	const storm = 6
	results := make(chan reloadResponse, storm)
	errs := make(chan error, storm)
	for i := 0; i < storm; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/reload", "application/json", bytes.NewReader([]byte(`{}`)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reload status %d", resp.StatusCode)
				return
			}
			var rr reloadResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				errs <- err
				return
			}
			results <- rr
		}()
	}

	// Hold the source until every request has joined the flight, so the
	// coalescing window provably covers the whole storm.
	be := srv.backends[0]
	deadline := time.Now().Add(10 * time.Second)
	for {
		var joined int32
		be.reloadMu.Lock()
		if be.reloadCall != nil {
			joined = be.reloadCall.joined.Load()
		}
		be.reloadMu.Unlock()
		if joined == storm {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests joined the reload flight", joined, storm)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	gens := map[uint64]bool{}
	for i := 0; i < storm; i++ {
		select {
		case rr := <-results:
			gens[rr.Generation] = true
			if rr.Configs != len(libB.Configs) {
				t.Errorf("reload response %+v, want %d configs", rr, len(libB.Configs))
			}
		case err := <-errs:
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("reload source ran %d times for %d concurrent requests, want 1", got, storm)
	}
	if len(gens) != 1 {
		t.Errorf("coalesced reloads answered %d distinct generations: %v", len(gens), gens)
	}

	// The door reopens once the flight lands: a later reload runs the source
	// again and advances the generation.
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	rr := decodeResp[reloadResponse](t, resp)
	if got := calls.Load(); got != 2 {
		t.Errorf("post-storm reload source calls %d, want 2", got)
	}
	for g := range gens {
		if rr.Generation <= g {
			t.Errorf("post-storm generation %d not after coalesced generation %d", rr.Generation, g)
		}
	}
}
