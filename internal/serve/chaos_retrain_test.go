package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// TestChaosRetrain layers the closed loop over the chaos harness: regret
// sampling, drift scoring and shadow retraining run while the reload storm,
// latency spikes, injected 503s and client cancellations are live. On top of
// the base chaos invariants (only 200s and the injected 503s, no degraded
// answer, per-generation consistency, the injector firing) it audits the
// retrain path:
//
//   - the first gated candidate per device is deliberately terrible (a static
//     worst-config selector) and must be rejected — and a rejected candidate's
//     library must never serve a single response;
//   - injected retrain failures are counted as errors, never promoted;
//   - every device eventually promotes a genuine candidate, and every
//     response stamped with a promoted generation is consistent with that
//     candidate's library;
//   - the decision accounting stays conserved through every swap:
//     sampled + unsampled == decisions, and the sample queue drains.
func TestChaosRetrain(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			chaosRetrainRun(t, seed)
		})
	}
}

func chaosRetrainRun(t *testing.T, seed uint64) {
	inj := faultinject.New(seed, faultinject.Options{
		Error:        0.02,
		Spike:        0.02,
		SpikeMax:     100 * time.Microsecond,
		Cancel:       0.08,
		CancelMax:    300 * time.Microsecond,
		RetrainError: 0.3,
	})
	universe := gemm.AllConfigs()[:120]

	type chaosBackend struct {
		name  string
		model *sim.Model
		libA  *core.Library
		libB  *core.Library
		bad   *core.Library // static worst-config candidate: must never pass the gates
	}
	var cbs []*chaosBackend
	var backends []Backend
	for _, spec := range []device.Spec{device.R9Nano(), device.IntegratedGen9()} {
		model := sim.New(spec)
		ds := dataset.Build(model, reloadShapes, universe)
		libA := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 6, 42)
		libB := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 42)
		bad, err := core.NewLibrary(libA.Configs, core.StaticSelector{
			Index: worstGeomeanIndex(model, libA.Configs, reloadShapes),
		})
		if err != nil {
			t.Fatal(err)
		}
		cbs = append(cbs, &chaosBackend{name: spec.Name, model: model, libA: libA, libB: libB, bad: bad})
		backends = append(backends, Backend{Device: spec.Name, Lib: libA, Model: model})
	}

	// Retrain bookkeeping. RetrainFunc and OnRetrain both run inside Maintain,
	// which this test only ever calls from the main goroutine — the mutex
	// guards against the race detector, not a real schedule.
	var mu sync.Mutex
	attempts := map[string]int{}
	lastCand := map[string]*core.Library{}
	libsByGen := map[string]map[uint64]*core.Library{}
	retrain := func(dev string, model *sim.Model, shapes []gemm.Shape) (*core.Library, error) {
		if inj.FailRetrain() {
			return nil, fmt.Errorf("injected retrain failure")
		}
		mu.Lock()
		attempts[dev]++
		n := attempts[dev]
		mu.Unlock()
		var cb *chaosBackend
		for _, c := range cbs {
			if c.name == dev {
				cb = c
			}
		}
		var cand *core.Library
		if n == 1 {
			cand = cb.bad
		} else {
			ds := dataset.Build(model, shapes, universe)
			cand = core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 6, 42)
		}
		mu.Lock()
		lastCand[dev] = cand
		mu.Unlock()
		return cand, nil
	}

	srv, err := NewMulti(backends, Options{
		TrainShapes:      reloadShapes,
		RegretSample:     0.5,
		RegretUniverse:   universe,
		WindowSize:       256,
		DriftThreshold:   0.25,
		RetrainMinWindow: 16,
		Retrain:          retrain,
		OnRetrain: func(ev RetrainEvent) {
			// Register a promoted candidate before the audit reads libsByGen;
			// runs inside Maintain on the main goroutine.
			if ev.Accepted {
				mu.Lock()
				libsByGen[ev.Device][ev.Generation] = lastCand[ev.Device]
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(inj.Middleware(srv.Handler()))
	defer ts.Close()

	for _, cb := range cbs {
		id, err := srv.Generation(cb.name)
		if err != nil {
			t.Fatal(err)
		}
		libsByGen[cb.name] = map[uint64]*core.Library{id: cb.libA}
	}

	// Pre-phase: shifted traffic fills each backend's window so drift is far
	// over threshold before the storm begins — the retrain trigger is
	// deterministic even though its timing races the reloads.
	for _, be := range srv.backends {
		for i := 0; i < 8; i++ {
			for _, sh := range shiftedShapes {
				if _, err := srv.Decide(be.name, sh); err != nil {
					t.Fatal(err)
				}
			}
		}
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
					a, b := reloadShapes[(g+i)%len(reloadShapes)], shiftedShapes[(g+2*i)%len(shiftedShapes)]
					raw, _ = json.Marshal(batchRequest{Device: dev, Shapes: []batchShape{
						{M: a.M, K: a.K, N: a.N}, {M: b.M, K: b.K, N: b.N},
					}})
				} else {
					url = ts.URL + "/v1/select"
					s := shiftedShapes[(g*7+i)%len(shiftedShapes)]
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

	// The storm: reloads and maintenance passes interleave with the chaos
	// traffic. Maintenance runs synchronously here, so retrain promotions land
	// on this goroutine, racing the workers exactly like production's
	// background maintain loop would.
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
		srv.Maintain()
		time.Sleep(2 * time.Millisecond)
	}
	// Keep maintaining until every backend has promoted at least one genuine
	// candidate — injected failures and the mandatory bad-candidate rejection
	// consume an unknown number of early passes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, be := range srv.backends {
			if be.retrainPromoted.Load() == 0 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not every backend promoted a retrain; events: %+v", srv.RetrainEvents())
		}
		srv.Maintain()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Audit every outcome against the registered generations — a rejected or
	// errored candidate was never registered, so one of its decisions would
	// surface here as an unknown generation.
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
				lib, ok := libsByGen[o.device][d.Generation]
				if !ok {
					t.Fatalf("%s: response from unknown generation %d — a gated candidate served", o.device, d.Generation)
				}
				if d.Index < 0 || d.Index >= len(lib.Configs) || d.Config != lib.Configs[d.Index].String() {
					t.Fatalf("%s gen %d: config %q / index %d inconsistent with its library",
						o.device, d.Generation, d.Config, d.Index)
				}
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

	// Retrain bookkeeping: per device, the bad candidate was rejected and a
	// genuine one promoted; injected failures match the error counter.
	var errorsTotal uint64
	for _, be := range srv.backends {
		if got := be.retrainRejected.Load(); got < 1 {
			t.Errorf("%s: rejected counter %d, want >= 1 (the bad candidate)", be.name, got)
		}
		if got := be.retrainPromoted.Load(); got < 1 {
			t.Errorf("%s: promoted counter %d, want >= 1", be.name, got)
		}
		errorsTotal += be.retrainErrors.Load()
	}
	if fails := inj.Stats().RetrainFails; errorsTotal != fails {
		t.Errorf("retrain errors %d, injector reports %d failures", errorsTotal, fails)
	}
	for _, ev := range srv.RetrainEvents() {
		if ev.Accepted && ev.CandidateRegret > ev.IncumbentRegret+1e-12 {
			t.Errorf("promoted candidate with worse holdout regret: %+v", ev)
		}
	}

	// Decision accounting conserved through every swap, and the sample queue
	// drains once traffic quiesces.
	for _, be := range srv.backends {
		if s, u, d := be.sampled.Load(), be.unsampled.Load(), be.decisions.Load(); s+u != d {
			t.Errorf("%s: sampled %d + unsampled %d != decisions %d", be.name, s, u, d)
		}
		waitSettled(t, be)
	}

	st := inj.Stats()
	t.Logf("seed %d: %d requests; %d spikes, %d errors, %d cancels, %d retrain fails; events %d",
		seed, total, st.Spikes, st.Errors, st.Cancels, st.RetrainFails, len(srv.RetrainEvents()))
	if uint64(injected) != st.Errors {
		t.Errorf("%d requests answered 503, the injector failed %d", injected, st.Errors)
	}
	if st.Spikes+st.Errors+st.Cancels == 0 {
		t.Error("injector fired no faults — chaos run exercised nothing")
	}
}
