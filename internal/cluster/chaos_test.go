package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
// spikes, injected 503s and cancellations on every replica endpoint the
// router calls (probes, artifact pulls, reloads), while one replica — chosen
// by the seed — is killed at the transport mid-load and restored, and rolling
// reloads through the router race an out-of-band reload of another replica.
// Clients keep sending selects and batches through the router the whole
// time. The audit pins the router's invariants:
//
//   - no valid shape ever sees anything but a 200, with the victim dark and
//     with pulls failing;
//   - every answer is the selector's choice for its stamped generation: each
//     replica's k-th reload swaps in the other artifact, so generation g names
//     artifact (g-1) mod 2 on every replica;
//   - generations never go backwards for a client;
//   - the outage and the injector really fired, the answers span more than
//     one generation, and once faults stop one probe round returns the fleet
//     to an all-up view with the router on the newest generation.
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
		Error:     0.15,
		Spike:     0.2,
		SpikeMax:  2 * time.Millisecond,
		Cancel:    0.05,
		CancelMax: time.Millisecond,
	})
	var armed atomic.Bool // faults start once the router has built its engine

	model := sim.New(device.R9Nano())
	ds := dataset.Build(model, fleetShapes, gemm.AllConfigs()[:120])
	libs := []*core.Library{
		core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 6, 42),
		core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 42),
	}
	libOf := func(gen uint64) *core.Library { return libs[(gen-1)%2] }

	// Every replica is an identically-trained single-device selectd whose
	// k-th reload swaps in libs[k%2], behind the shared injector and an
	// outage switch on its wire.
	var srvs []*serve.Server
	var outages []*faultinject.Outage
	replicas := make([]*Replica, replicaCount)
	var servers []*httptest.Server
	for i := 0; i < replicaCount; i++ {
		srv := serve.New(libs[0], model, serve.Options{WindowSize: 512})
		var reloads atomic.Uint64
		srv.SetReloadSource(func(string) (*core.Library, *sim.Model, error) {
			return libs[reloads.Add(1)%2], nil, nil
		})
		faulty := inj.Middleware(srv.Handler())
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if armed.Load() {
				faulty.ServeHTTP(w, r)
				return
			}
			srv.Handler().ServeHTTP(w, r)
		})
		o := faultinject.NewOutage()
		ts := httptest.NewServer(o.Middleware(h))
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

	router, err := New(context.Background(), Options{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()
	armed.Store(true)

	// Seed-determined victim and out-of-band reload target.
	victim := int(seed % replicaCount)
	oob := (victim + 1) % replicaCount

	type outcome struct {
		status  int
		results []serve.Decision
	}
	const goroutines = 8
	const minPerG = 40
	var wg sync.WaitGroup
	outcomes := make([][]outcome, goroutines)
	errs := make(chan error, goroutines)
	stop := make(chan struct{})
	client := &http.Client{Timeout: 10 * time.Second}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= minPerG {
					select {
					case <-stop:
						return
					default:
					}
				}
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
					errs <- fmt.Errorf("client %d request %d: %w", g, i, err)
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
				time.Sleep(200 * time.Microsecond)
			}
		}(g)
	}

	// The chaos conductor: probe → kill the victim → probe (it goes down) →
	// a rolling reload through the router racing an out-of-band reload of
	// another replica → probe (the router catches up on whatever it missed)
	// → restore → probe (the victim rejoins) → roll the fleet again. Faults
	// may fail any reload or pull; the router must answer regardless.
	step := 5 * time.Millisecond
	probe := func() { router.ProbeOnce(context.Background()) }
	roll := func() {
		resp, err := client.Post(rts.URL+"/v1/reload", "application/json", strings.NewReader(`{}`))
		if err == nil {
			resp.Body.Close()
		}
	}
	time.Sleep(step)
	probe()
	outages[victim].Kill()
	time.Sleep(step)
	probe()
	var race sync.WaitGroup
	race.Add(2)
	go func() { defer race.Done(); roll() }()
	go func() {
		defer race.Done()
		resp, err := client.Post(servers[oob].URL+"/v1/reload", "application/json", strings.NewReader(`{}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	race.Wait()
	probe()
	time.Sleep(step)
	outages[victim].Restore()
	probe()
	roll()
	time.Sleep(step)
	probe()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The audit.
	gensSeen := map[uint64]bool{}
	var total int
	for g := range outcomes {
		var last uint64
		for _, o := range outcomes[g] {
			total++
			if o.status != http.StatusOK {
				t.Fatalf("client %d: valid shape answered %d — the no-5xx contract is broken", g, o.status)
			}
			if len(o.results) == 0 {
				t.Fatalf("client %d: a 200 carried no decision", g)
			}
			for _, d := range o.results {
				if d.Generation == 0 {
					t.Fatalf("client %d: answer %+v carries no generation", g, d)
				}
				if d.Generation < last {
					t.Fatalf("client %d: generation went back from %d to %d", g, last, d.Generation)
				}
				last = d.Generation
				gensSeen[d.Generation] = true
				lib := libOf(d.Generation)
				var sh gemm.Shape
				if _, err := fmt.Sscanf(d.Shape, "%dx%dx%d", &sh.M, &sh.K, &sh.N); err != nil {
					t.Fatalf("unparseable shape %q", d.Shape)
				}
				want := lib.ChooseIndex(sh)
				if d.Index != want || d.Config != lib.Configs[want].String() {
					t.Fatalf("gen %d shape %s: served %s (index %d), the selector chooses %s (index %d)",
						d.Generation, d.Shape, d.Config, d.Index, lib.Configs[want], want)
				}
			}
		}
	}
	if len(gensSeen) < 2 {
		t.Errorf("answers carried only generations %v; the reloads never reached the router", gensSeen)
	}

	// The outage and the injector must actually have fired.
	if outages[victim].Kills() != 1 || outages[victim].Severed() == 0 {
		t.Errorf("victim kills %d, severed %d; want one kill that severed the probe", outages[victim].Kills(), outages[victim].Severed())
	}
	st := inj.Stats()
	if st.Spikes+st.Errors+st.Cancels == 0 {
		t.Error("injector fired no faults — chaos run exercised nothing")
	}

	// Re-convergence: with faults off, one probe round returns the whole
	// fleet to up and the router to the newest generation any replica serves.
	armed.Store(false)
	view := router.ProbeOnce(context.Background())
	var newest uint64
	for i, e := range view.Replicas {
		if e.State != StateUp {
			t.Errorf("replica %s state %q after recovery probe, want up", e.Name, e.State)
		}
		if g, _ := srvs[i].Generation(""); g > newest {
			newest = g
		}
	}
	if got, _ := router.engine.Generation(""); got != newest {
		t.Errorf("router serves generation %d after recovery, the newest replica %d", got, newest)
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
	t.Logf("seed %d: %d requests over generations %v; victim %d severed %d conns; injected %d spikes %d errors %d cancels; router: %d reloads, %d failed pulls",
		seed, total, sortedGens(gensSeen), victim, outages[victim].Severed(),
		st.Spikes, st.Errors, st.Cancels, router.metrics.reloads.Load(), router.metrics.pullErrors.Load())
}

func sortedGens(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for g := range m {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
