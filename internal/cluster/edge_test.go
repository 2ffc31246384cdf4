package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// routerReload posts one replica reload through the router and returns its
// summary.
func routerReload(t *testing.T, url, replica string) reloadSummary {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"replica": replica})
	resp, err := http.Post(url+"/v1/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router reload: status %d", resp.StatusCode)
	}
	var out struct {
		Reloads []reloadSummary `json:"reloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Reloads) != 1 || out.Reloads[0].Err != "" {
		t.Fatalf("reload summary %+v", out.Reloads)
	}
	return out.Reloads[0]
}

// A /v1/reload generation bump on one replica evicts exactly that replica's
// edge entries: the victim's shard re-prices on the new generation while its
// peer's cached shard keeps answering without an upstream hop.
func TestEdgeReloadEvictsOnlyVictimShard(t *testing.T) {
	f := newTestFleet(t, 2, Options{HedgeDelay: -1, EdgeCacheSize: 1024}, nil)
	libB := buildFleetLib(t, f.model, 4)
	for _, srv := range f.srvs {
		srv.SetReloadSource(func(string) (*core.Library, *sim.Model, error) {
			return libB, nil, nil
		})
	}
	shapeA := shapeWithPrimary(t, f.router, "", 0)
	shapeB := shapeWithPrimary(t, f.router, "", 1)

	// Fill both shards, then prove the repeats are edge hits: the replicas'
	// win counters do not move.
	for _, shape := range []gemm.Shape{shapeA, shapeB} {
		if status, d := routerSelect(t, f.rts.URL, shape); status != http.StatusOK || d.Degraded {
			t.Fatalf("fill request %v: status %d degraded=%v", shape, status, d.Degraded)
		}
	}
	winsA, winsB := f.router.metrics.wins[0].Load(), f.router.metrics.wins[1].Load()
	for _, shape := range []gemm.Shape{shapeA, shapeB} {
		if status, _ := routerSelect(t, f.rts.URL, shape); status != http.StatusOK {
			t.Fatalf("repeat request %v: status %d", shape, status)
		}
	}
	if f.router.metrics.wins[0].Load() != winsA || f.router.metrics.wins[1].Load() != winsB {
		t.Fatal("repeat requests reached a replica — edge cache did not serve them")
	}
	if hits := f.router.metrics.edgeHits.Load(); hits < 2 {
		t.Fatalf("edge hits %d after two cached repeats, want >= 2", hits)
	}

	sum := routerReload(t, f.rts.URL, replicaName(0))
	if sum.Generation < 2 {
		t.Fatalf("reload generation %d, want >= 2", sum.Generation)
	}

	// The victim's entry is gone; the peer's survived.
	if body := f.router.edge.get(nil, shapeA); body != nil {
		t.Fatalf("stale entry for the reloaded shard still cached: %s", body)
	}
	if body := f.router.edge.get(nil, shapeB); body == nil {
		t.Fatal("peer shard's entry was evicted by an unrelated reload")
	}

	// The re-priced answer carries the new generation, never the stale body.
	status, d := routerSelect(t, f.rts.URL, shapeA)
	if status != http.StatusOK || d.Degraded {
		t.Fatalf("post-reload request: status %d degraded=%v", status, d.Degraded)
	}
	if d.Generation != sum.Generation {
		t.Fatalf("post-reload decision from generation %d, want %d", d.Generation, sum.Generation)
	}
	// And the peer's cached shard still answers without an upstream hop.
	winsB = f.router.metrics.wins[1].Load()
	if status, _ := routerSelect(t, f.rts.URL, shapeB); status != http.StatusOK {
		t.Fatalf("peer repeat after reload: status %d", status)
	}
	if f.router.metrics.wins[1].Load() != winsB {
		t.Error("peer shard repeat reached the replica after an unrelated reload")
	}
}

// An out-of-band reload (straight to the replica, bypassing the router) is
// caught by the next probe round: the generation register advances from the
// gossiped view and the stale entry is never served again.
func TestEdgeProbeEvictsOutOfBandReload(t *testing.T) {
	f := newTestFleet(t, 1, Options{HedgeDelay: -1, EdgeCacheSize: 1024}, nil)
	shape := fleetShapes[3]
	if status, d := routerSelect(t, f.rts.URL, shape); status != http.StatusOK || d.Generation != 1 {
		t.Fatalf("fill request: status %d generation %d", status, d.Generation)
	}
	if f.router.edge.get(nil, shape) == nil {
		t.Fatal("fill request did not cache")
	}

	libB := buildFleetLib(t, f.model, 4)
	gen2, err := f.srvs[0].Reload("", libB, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.router.ProbeOnce(context.Background())
	if reg := f.router.edge.reg("", 0); reg != gen2 {
		t.Fatalf("generation register %d after probe, want %d", reg, gen2)
	}
	if body := f.router.edge.get(nil, shape); body != nil {
		t.Fatalf("stale generation-1 body still served after the probe: %s", body)
	}
	status, d := routerSelect(t, f.rts.URL, shape)
	if status != http.StatusOK || d.Generation != gen2 {
		t.Fatalf("post-probe request: status %d generation %d, want %d", status, d.Generation, gen2)
	}
}

// Degraded answers are never cached — neither the router-local replica_down
// fallback nor a degraded body passed through from a pressured replica.
func TestEdgeDegradedNeverCached(t *testing.T) {
	t.Run("local-fallback", func(t *testing.T) {
		f := newTestFleet(t, 1, Options{HedgeDelay: -1, EdgeCacheSize: 1024}, nil)
		f.router.MarkDown(replicaName(0))
		for i := 0; i < 2; i++ {
			status, d := routerSelect(t, f.rts.URL, fleetShapes[0])
			if status != http.StatusOK || !d.Degraded || d.DegradedReason != "replica_down" {
				t.Fatalf("request %d: status %d decision %+v", i, status, d)
			}
		}
		if n := f.router.edge.len(); n != 0 {
			t.Errorf("%d degraded fallback answers cached, want 0", n)
		}
	})

	t.Run("replica-passthrough", func(t *testing.T) {
		degraded, _ := json.Marshal(serve.Decision{
			Device: "r9nano", Shape: "784x1152x256", Config: "8x8x8 f4",
			Generation: 3, Degraded: true, DegradedReason: "admission_budget",
		})
		wrap := func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/select" {
					w.Header().Set("Content-Type", "application/json")
					w.Write(append(degraded, '\n'))
					return
				}
				h.ServeHTTP(w, r)
			})
		}
		f := newTestFleet(t, 1, Options{HedgeDelay: -1, EdgeCacheSize: 1024}, wrap)
		for i := 0; i < 2; i++ {
			status, d := routerSelect(t, f.rts.URL, fleetShapes[3])
			if status != http.StatusOK || !d.Degraded {
				t.Fatalf("request %d: status %d decision %+v", i, status, d)
			}
		}
		if n := f.router.edge.len(); n != 0 {
			t.Errorf("%d degraded passthrough bodies cached, want 0", n)
		}
		if wins := f.router.metrics.wins[0].Load(); wins != 2 {
			t.Errorf("replica won %d requests, want 2 (no request may be served from cache)", wins)
		}
	})
}

// Two misses on one shape both fill the edge cache, and the second put
// rewrites the cached entry in place while hits read it. Under -race (make
// race-cluster) this fails if a hit reads the entry after the shard lock
// is released.
func TestEdgeRefillRacesHit(t *testing.T) {
	c := newEdgeCache(64, 1, newRouterMetrics([]string{replicaName(0)}))
	shape := fleetShapes[0]
	bodies := [][]byte{[]byte("{\"generation\":1}\n"), []byte("{\"generation\":1} \n")}
	c.put("", shape, 0, 1, bodies[0])
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c.put("", shape, 0, 1, bodies[i%2])
		}
	}()
	for i := 0; i < 2000; i++ {
		if b := c.get(nil, shape); !bytes.Equal(b, bodies[0]) && !bytes.Equal(b, bodies[1]) {
			t.Fatalf("hit %d returned %q", i, b)
		}
	}
	wg.Wait()
}
