package cluster

import (
	"bytes"
	"context"
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
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// TestChaosCluster drives a 3-replica fleet through seed-determined latency
// spikes, injected replica 503s and client cancellations on the select
// endpoints while one replica — chosen by the seed — is killed at the
// transport mid-load, restored, and rolled onto a new generation through the
// router's rolling reload. The audit pins the cluster resilience invariants:
//
//   - a valid shape never sees a 5xx, not even when a replica answers 503:
//     every response is 200 (no shipped daemon sends 429 either);
//   - every 200 is generation-consistent: its config sits at its index in the
//     library of the generation stamped on it, and it agrees with that
//     library's interpreted selector;
//   - every degraded answer is a router-local fallback with reason
//     replica_down — selectd itself never degrades;
//   - every surviving edge-cache entry is full quality and stamped with its
//     owner's current generation;
//   - the outage really fired (kills and severed connections counted) and
//     the fleet re-converges to an all-up /v1/cluster view.
//
// Seed count from CHAOS_SEEDS (default 2); reproduce one seed with
// `CHAOS_SEEDS=1 CHAOS_BASE=<seed> go test -run TestChaosCluster/seed=<seed>`.
func TestChaosCluster(t *testing.T) {
	seeds := 2
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
			chaosClusterRun(t, seed)
		})
	}
}

func chaosClusterRun(t *testing.T, seed uint64) {
	const replicaCount = 3
	inj := faultinject.New(seed, faultinject.Options{
		Error:     0.02,
		Spike:     0.02,
		SpikeMax:  100 * time.Microsecond,
		Cancel:    0.05,
		CancelMax: 300 * time.Microsecond,
	})

	model := sim.New(device.R9Nano())
	ds := dataset.Build(model, fleetShapes, gemm.AllConfigs()[:120])
	libA := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 6, 42)
	libB := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 42)

	// Every replica is an identically-trained single-device selectd with the
	// shared injector on its select endpoints — the data plane; probes and
	// reloads stay clean — and an outage switch on its wire.
	var srvs []*serve.Server
	var outages []*faultinject.Outage
	replicas := make([]*Replica, replicaCount)
	var servers []*httptest.Server
	for i := 0; i < replicaCount; i++ {
		srv := serve.New(libA, model, serve.Options{WindowSize: 512})
		srv.SetReloadSource(func(string) (*core.Library, *sim.Model, error) {
			return libB, nil, nil
		})
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		mux.Handle("/v1/select", inj.Middleware(srv.Handler()))
		mux.Handle("/v1/select/batch", inj.Middleware(srv.Handler()))
		o := faultinject.NewOutage()
		ts := httptest.NewServer(o.Middleware(mux))
		srvs = append(srvs, srv)
		outages = append(outages, o)
		servers = append(servers, ts)
		replicas[i] = NewReplica(replicaName(i), ts.URL, nil)
	}
	defer func() {
		for _, ts := range servers {
			ts.Close()
		}
		for _, srv := range srvs {
			srv.Close()
		}
	}()

	local := serve.New(libA, model, serve.Options{})
	defer local.Close()
	router, err := New(Options{
		Replicas:      replicas,
		Local:         local,
		Retries:       replicaCount,
		RetryBackoff:  2 * time.Millisecond,
		HedgeDelay:    10 * time.Millisecond,
		EdgeCacheSize: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	// Seed-determined victim; kill/restore/reload land at fixed fractions of
	// the load window.
	victim := int(seed % replicaCount)

	type outcome struct {
		status  int
		results []serve.Decision
	}
	const goroutines = 8
	const perG = 40
	var wg sync.WaitGroup
	outcomes := make([][]outcome, goroutines)
	errs := make(chan error, goroutines)
	client := &http.Client{Timeout: 10 * time.Second}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var url string
				var raw []byte
				if i%4 == 3 {
					url = rts.URL + "/v1/select/batch"
					a, b := fleetShapes[(g+i)%len(fleetShapes)], fleetShapes[(g+2*i)%len(fleetShapes)]
					raw, _ = json.Marshal(map[string]any{"shapes": []map[string]int{
						{"m": a.M, "k": a.K, "n": a.N}, {"m": b.M, "k": b.K, "n": b.N},
					}})
				} else {
					url = rts.URL + "/v1/select"
					s := fleetShapes[(g*7+i)%len(fleetShapes)]
					raw, _ = json.Marshal(map[string]int{"m": s.M, "k": s.K, "n": s.N})
				}
				resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d request %d: %w", g, i, err)
					return
				}
				o := outcome{status: resp.StatusCode}
				if resp.StatusCode == http.StatusOK {
					var body bytes.Buffer
					if _, err := body.ReadFrom(resp.Body); err == nil {
						var d serve.Decision
						var br struct {
							Results []serve.Decision `json:"results"`
						}
						if json.Unmarshal(body.Bytes(), &br) == nil && len(br.Results) > 0 {
							o.results = br.Results
						} else if json.Unmarshal(body.Bytes(), &d) == nil && d.Config != "" {
							o.results = []serve.Decision{d}
						}
					}
				}
				resp.Body.Close()
				outcomes[g] = append(outcomes[g], o)
				time.Sleep(500 * time.Microsecond)
			}
		}(g)
	}

	// The chaos conductor: probe → kill the victim mid-run → probe (the
	// fleet routes around it) → restore → probe (it rejoins) → roll it onto
	// the new generation.
	conduct := func() error {
		step := 18 * time.Millisecond
		probe := func() { router.ProbeOnce(context.Background()) }
		time.Sleep(step)
		probe()
		outages[victim].Kill()
		time.Sleep(2 * step)
		probe()
		time.Sleep(2 * step)
		outages[victim].Restore()
		probe()
		if got := router.health.state(replicaName(victim)); got != StateUp {
			return fmt.Errorf("restored victim %d still %q after probe", victim, got)
		}
		body, _ := json.Marshal(map[string]string{"replica": replicaName(victim)})
		resp, err := client.Post(rts.URL+"/v1/reload", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("router reload: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("router reload: status %d", resp.StatusCode)
		}
		return nil
	}
	if err := conduct(); err != nil {
		t.Error(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Generation map: every replica starts at generation 1 on libA; the
	// victim's single reload moves it to generation 2 on libB. The router's
	// local fallback engine also serves generation 1 of libA.
	libsByGen := map[uint64]*core.Library{1: libA, 2: libB}

	var total, fallbackN int
	for g := range outcomes {
		for _, o := range outcomes[g] {
			total++
			if o.status != http.StatusOK {
				t.Fatalf("valid shape answered %d — the no-5xx (and no-429) contract is broken", o.status)
			}
			for _, d := range o.results {
				lib, ok := libsByGen[d.Generation]
				if !ok {
					t.Fatalf("response from unknown generation %d", d.Generation)
				}
				if d.Index < 0 || d.Index >= len(lib.Configs) || d.Config != lib.Configs[d.Index].String() {
					t.Fatalf("gen %d: config %q / index %d inconsistent with its library", d.Generation, d.Config, d.Index)
				}
				var sh gemm.Shape
				if _, err := fmt.Sscanf(d.Shape, "%dx%dx%d", &sh.M, &sh.K, &sh.N); err != nil {
					t.Fatalf("unparseable shape %q", d.Shape)
				}
				// The router's fallback answers with its local engine's
				// selector, so a degraded answer agrees with its library too.
				if want := lib.ChooseIndex(sh); d.Index != want {
					t.Fatalf("gen %d shape %s: served index %d, selector says %d", d.Generation, d.Shape, d.Index, want)
				}
				if d.Degraded || d.DegradedReason != "" {
					if !d.Degraded || d.DegradedReason != "replica_down" {
						t.Fatalf("degraded answer %+v; the only degraded answer is the router's replica_down", d)
					}
					fallbackN++
				}
			}
		}
	}
	if total != goroutines*perG {
		t.Fatalf("%d outcomes for %d requests", total, goroutines*perG)
	}

	// The outage must actually have fired.
	if outages[victim].Kills() != 1 {
		t.Errorf("victim kills %d, want 1", outages[victim].Kills())
	}
	if outages[victim].Severed() == 0 && router.metrics.repErrors.Load() == 0 {
		t.Error("kill window severed nothing and the router saw no replica errors — outage never bit")
	}

	// Re-convergence: a probe round returns the whole fleet to up, and the
	// HTTP view agrees.
	view := router.ProbeOnce(context.Background())
	for _, e := range view.Replicas {
		if e.State != StateUp {
			t.Errorf("replica %s state %q after recovery probe, want up", e.Name, e.State)
		}
	}
	resp, err := client.Get(rts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var wireView View
	if err := json.NewDecoder(resp.Body).Decode(&wireView); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, e := range wireView.Replicas {
		if e.State != StateUp {
			t.Errorf("/v1/cluster reports %s %q after recovery", e.Name, e.State)
		}
	}
	if gen := wireView.Replicas[victim].Generations[model.Dev.Name]; gen != 2 {
		t.Errorf("victim generation %d in the recovered view, want 2 (post-reload)", gen)
	}

	// Cache-coherence audit: with the edge cache live through kills, reloads
	// and gossip, every surviving entry must be stamped with its owning
	// replica's CURRENT generation (per the recovered view), agree with its
	// own rendered body, and match the register a get() would check — i.e. no
	// request from here on could ever be served a stale or degraded body.
	finalGens := make([]uint64, replicaCount)
	for i, e := range view.Replicas {
		finalGens[i] = e.Generations[model.Dev.Name]
	}
	cacheEntries := 0
	router.edge.forEach(func(dev string, e edgeEntry) {
		cacheEntries++
		gen, degraded, ok := serve.ScanDecisionMeta(e.body)
		if !ok || degraded || gen != e.gen {
			t.Errorf("edge entry %s/%v: body scan (gen=%d degraded=%v ok=%v) disagrees with stamp gen %d", dev, e.shape, gen, degraded, ok, e.gen)
		}
		if e.gen != finalGens[e.rep] {
			t.Errorf("edge entry %s/%v owned by replica %d carries gen %d, owner is at gen %d", dev, e.shape, e.rep, e.gen, finalGens[e.rep])
		}
		if reg := router.edge.reg(dev, e.rep); e.gen != reg {
			t.Errorf("edge entry %s/%v: stamp gen %d vs register %d — a hit would serve a stale body", dev, e.shape, e.gen, reg)
		}
	})

	st := inj.Stats()
	if st.Spikes+st.Errors+st.Cancels == 0 {
		t.Error("injector fired no faults — chaos run exercised nothing")
	}
	t.Logf("seed %d: %d requests (%d router fallbacks); victim %d severed %d conns; injected %d spikes %d errors %d cancels; router: %d retries %d hedges %d hedge-wins %d replica-errors; edge: %d entries %d hits %d invalidations",
		seed, total, fallbackN, victim, outages[victim].Severed(),
		st.Spikes, st.Errors, st.Cancels,
		router.metrics.retries.Load(), router.metrics.hedges.Load(),
		router.metrics.hedgeWins.Load(), router.metrics.repErrors.Load(),
		cacheEntries, router.metrics.edgeHits.Load(),
		router.metrics.edgeInvalidations.Load())
}
