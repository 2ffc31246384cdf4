package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/faultinject"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

// TestChaos drives a two-device server through seed-determined latency
// spikes, injected 503s, mid-request client cancellations, and concurrent
// hot reloads, then audits the resilience invariants:
//
//   - no panics and no unexplained statuses: every response is a 200 or one
//     of the injector's 503s, and the 503s number exactly the injected ones;
//   - every 200 carries decisions, none of them degraded: selectd always
//     answers with its selector;
//   - every decision is internally consistent: its config sits at its index
//     in the library of the generation stamped on it, and it agrees with
//     that library's interpreted selector;
//   - the injector actually fired.
//
// The seed count comes from CHAOS_SEEDS (default 4); `make chaos` runs a
// wider sweep under -race. A failing seed reproduces with
// `CHAOS_SEEDS=1 CHAOS_BASE=<seed> go test -run TestChaos/seed=<seed>`.
func TestChaos(t *testing.T) {
	seeds := 4
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_SEEDS %q", v)
		}
		seeds = n
	}
	base := uint64(1)
	if v := os.Getenv("CHAOS_BASE"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_BASE %q", v)
		}
		base = n
	}
	for i := 0; i < seeds; i++ {
		seed := base + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			chaosRun(t, seed)
		})
	}
}

func chaosRun(t *testing.T, seed uint64) {
	inj := faultinject.New(seed, faultinject.Options{
		Error:     0.02,
		Spike:     0.02,
		SpikeMax:  100 * time.Microsecond,
		Cancel:    0.08,
		CancelMax: 300 * time.Microsecond,
	})

	// Two backends, each with an A and a B library to reload between; the
	// injector wraps the server's HTTP surface.
	type chaosBackend struct {
		name string
		libA *core.Library
		libB *core.Library
	}
	var cbs []chaosBackend
	var backends []Backend
	for _, spec := range []device.Spec{device.R9Nano(), device.IntegratedGen9()} {
		model := sim.New(spec)
		ds := dataset.Build(model, reloadShapes, gemm.AllConfigs()[:120])
		libA := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 6, 42)
		libB := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 42)
		cbs = append(cbs, chaosBackend{name: spec.Name, libA: libA, libB: libB})
		backends = append(backends, Backend{Device: spec.Name, Lib: libA, Model: model})
	}
	srv, err := NewMulti(backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(inj.Middleware(srv.Handler()))
	defer ts.Close()

	// libsByGen maps every generation id ever served to its library. Written
	// only by this goroutine (initial state + the reload loop below), read
	// only after the workers join.
	libsByGen := map[string]map[uint64]*core.Library{}
	for _, cb := range cbs {
		id, err := srv.Generation(cb.name)
		if err != nil {
			t.Fatal(err)
		}
		libsByGen[cb.name] = map[uint64]*core.Library{id: cb.libA}
	}

	type outcome struct {
		status  int
		device  string
		results []Decision
	}
	const goroutines = 8
	const perG = 30
	var wg sync.WaitGroup
	outcomes := make([][]outcome, goroutines)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				dev := cbs[(g+i)%len(cbs)].name
				var url string
				var raw []byte
				if i%4 == 3 {
					url = ts.URL + "/v1/select/batch"
					a, b := reloadShapes[(g+i)%len(reloadShapes)], reloadShapes[(g+2*i)%len(reloadShapes)]
					raw, _ = json.Marshal(batchRequest{Device: dev, Shapes: []batchShape{
						{M: a.M, K: a.K, N: a.N}, {M: b.M, K: b.K, N: b.N},
					}})
				} else {
					url = ts.URL + "/v1/select"
					s := reloadShapes[(g*7+i)%len(reloadShapes)]
					raw, _ = json.Marshal(shapeRequest{M: s.M, K: s.K, N: s.N, Device: dev})
				}
				resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d request %d: %w", g, i, err)
					return
				}
				o := outcome{status: resp.StatusCode, device: dev}
				if resp.StatusCode == http.StatusOK {
					var body bytes.Buffer
					if _, err := body.ReadFrom(resp.Body); err == nil {
						var d Decision
						var br batchResponse
						if json.Unmarshal(body.Bytes(), &br) == nil && len(br.Results) > 0 {
							o.results = br.Results
						} else if json.Unmarshal(body.Bytes(), &d) == nil && d.Config != "" {
							o.results = []Decision{d}
						}
					}
				}
				resp.Body.Close()
				outcomes[g] = append(outcomes[g], o)
			}
		}(g)
	}

	// Reload both devices between their A and B libraries while the chaos
	// traffic runs — the reload-race injection.
	for i := 0; i < 10; i++ {
		for _, cb := range cbs {
			lib := cb.libA
			if i%2 == 0 {
				lib = cb.libB
			}
			id, err := srv.Reload(cb.name, lib, nil)
			if err != nil {
				t.Fatal(err)
			}
			libsByGen[cb.name][id] = lib
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Audit every outcome.
	var total, injected int
	for g := range outcomes {
		for _, o := range outcomes[g] {
			total++
			switch o.status {
			case http.StatusOK:
			case http.StatusServiceUnavailable:
				injected++
				continue
			default:
				t.Fatalf("unexplained status %d", o.status)
			}
			if len(o.results) == 0 {
				t.Fatalf("%s: a 200 carried no decision", o.device)
			}
			for _, d := range o.results {
				if d.Degraded || d.DegradedReason != "" {
					t.Fatalf("%s: degraded answer %+v; selectd always answers with its selector", o.device, d)
				}
				lib, ok := libsByGen[o.device][d.Generation]
				if !ok {
					t.Fatalf("%s: response from unknown generation %d", o.device, d.Generation)
				}
				if d.Index < 0 || d.Index >= len(lib.Configs) || d.Config != lib.Configs[d.Index].String() {
					t.Fatalf("%s gen %d: config %q / index %d inconsistent with its library",
						o.device, d.Generation, d.Config, d.Index)
				}
				// Every decision was chosen by the generation's compiled
				// chooser; it must match the interpreted selector of the
				// library that produced it, even across mid-request reload
				// swaps.
				var sh gemm.Shape
				if _, err := fmt.Sscanf(d.Shape, "%dx%dx%d", &sh.M, &sh.K, &sh.N); err != nil {
					t.Fatalf("%s: unparseable shape %q", o.device, d.Shape)
				}
				if want := lib.ChooseIndex(sh); d.Index != want {
					t.Fatalf("%s gen %d shape %s: served index %d, selector says %d",
						o.device, d.Generation, d.Shape, d.Index, want)
				}
			}
		}
	}
	if total != goroutines*perG {
		t.Fatalf("%d outcomes for %d requests", total, goroutines*perG)
	}

	st := inj.Stats()
	t.Logf("seed %d: %d requests; injected %d spikes, %d errors, %d cancels",
		seed, total, st.Spikes, st.Errors, st.Cancels)
	if uint64(injected) != st.Errors {
		t.Errorf("%d requests answered 503, the injector failed %d", injected, st.Errors)
	}
	if st.Spikes+st.Errors+st.Cancels == 0 {
		t.Error("injector fired no faults — chaos run exercised nothing")
	}
}
