package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"kernelselect/internal/device"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// With the whole fleet dark the router keeps answering every device the
// replicas serve, from the artifact it pulled and stamped with the
// replicas' generation: a valid select on the second device gets that
// device's config, and a select naming no device gets the replicas'
// default device.
func TestFleetDownServesEveryDevice(t *testing.T) {
	var backends []serve.Backend
	for _, spec := range []device.Spec{device.R9Nano(), device.IntegratedGen9()} {
		model := sim.New(spec)
		backends = append(backends, serve.Backend{Device: spec.Name, Lib: buildFleetLib(t, model, 6), Model: model})
	}
	var srvs []*serve.Server
	var tss []*httptest.Server
	var replicas []*Replica
	for i := 0; i < 2; i++ {
		srv, err := serve.NewMulti(backends, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		srvs, tss = append(srvs, srv), append(tss, ts)
		replicas = append(replicas, NewReplica(replicaName(i), ts.URL, nil))
	}
	router, err := New(context.Background(), Options{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	for _, ts := range tss {
		ts.Close()
	}
	view := router.ProbeOnce(context.Background())
	for _, e := range view.Replicas {
		if e.State != StateDown {
			t.Fatalf("replica %s %q after its listener closed, want down", e.Name, e.State)
		}
	}

	for _, sh := range fleetShapes {
		for _, dev := range []string{"", device.IntegratedGen9().Name} {
			want, err := srvs[0].Decide(dev, sh)
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf(`{"m":%d,"k":%d,"n":%d}`, sh.M, sh.K, sh.N)
			if dev != "" {
				body = fmt.Sprintf(`{"m":%d,"k":%d,"n":%d,"device":%q}`, sh.M, sh.K, sh.N, dev)
			}
			status, got := postRaw(t, rts.URL+"/v1/select", body)
			var d serve.Decision
			if status != http.StatusOK || json.Unmarshal(got, &d) != nil {
				t.Fatalf("device %q %v with the fleet dark: status %d, body %s", dev, sh, status, got)
			}
			if d != want {
				t.Fatalf("device %q %v with the fleet dark: router %+v, replica %+v", dev, sh, d, want)
			}
		}
	}
}

// A replica that dies owing the router a newer generation is marked down and
// its pull retried. The router learns of the generation from a peer's gossip,
// the pull against the dead replica fails and is counted, and selects keep
// the generation the router has. The next probe marks the replica down; once
// it answers again, the probe after that marks it up and the pull succeeds.
func TestDeadReplicaMarkedDownAndRetried(t *testing.T) {
	var dead atomic.Bool
	f := newTestFleet(t, 2, Options{}, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dead.Load() {
				panic(http.ErrAbortHandler) // drop the connection, as a crash would
			}
			h.ServeHTTP(w, r)
		})
	})
	libB := buildFleetLib(t, f.model, 4)
	gen, err := f.srvs[1].Reload("", libB, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead.Store(true)

	// A peer router saw the reload before the replica died.
	peer := f.router.View()
	peer.Router = "peer"
	peer.Replicas[1].Seq += 10
	peer.Replicas[1].Generations = map[string]uint64{f.model.Dev.Name: gen}
	body, _ := json.Marshal(peer)
	if status, out := postRaw(t, f.rts.URL+"/v1/cluster", string(body)); status != http.StatusOK {
		t.Fatalf("gossip merge: status %d, body %s", status, out)
	}
	if n := f.router.metrics.pullErrors.Load(); n != 1 {
		t.Fatalf("pull errors %d after gossip named a dead replica's generation, want 1", n)
	}
	assertServes(t, f, 1, f.lib)

	view := f.router.ProbeOnce(context.Background())
	if got := view.Replicas[1].State; got != StateDown {
		t.Fatalf("dead replica state %q after probe, want down", got)
	}
	assertServes(t, f, 1, f.lib)

	dead.Store(false)
	view = f.router.ProbeOnce(context.Background())
	if got := view.Replicas[1].State; got != StateUp {
		t.Fatalf("restored replica state %q after probe, want up", got)
	}
	assertServes(t, f, gen, libB)
	if n := f.router.metrics.pullErrors.Load(); n != 1 {
		t.Errorf("pull errors %d after the retried pull, want still 1", n)
	}
}

// An unpriceable request (invalid shape) stays a client error even with the
// fleet dark — the no-5xx guarantee is scoped to valid shapes.
func TestUnpriceableShapeStays400(t *testing.T) {
	f := newTestFleet(t, 2, Options{}, nil)
	for i := range f.srvs {
		f.router.MarkDown(replicaName(i))
	}
	resp, err := http.Post(f.rts.URL+"/v1/select", "application/json",
		strings.NewReader(`{"m":-1,"k":0,"n":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid shape: status %d, want 400", resp.StatusCode)
	}
}

// New pulls from the first replica whose /healthz answers, and fails when
// none does.
func TestNewPullsFromFirstLiveReplica(t *testing.T) {
	f := newTestFleet(t, 2, Options{}, nil)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	reps := []*Replica{NewReplica("dead", dead.URL, nil), NewReplica(replicaName(1), f.reps[1].URL, nil)}
	r, err := New(context.Background(), Options{Replicas: reps})
	if err != nil {
		t.Fatalf("New with one live replica: %v", err)
	}
	defer r.Close()
	if gen, _ := r.engine.Generation(""); gen != 1 {
		t.Errorf("router serves generation %d, the replica 1", gen)
	}
	if _, err := New(context.Background(), Options{Replicas: reps[:1]}); err == nil || !strings.Contains(err.Error(), "no replica serves an artifact") {
		t.Errorf("New with every replica dark: error %v", err)
	}
}
