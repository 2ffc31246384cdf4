package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// A rolling reload (no replica named) rolls every up replica, one at a time,
// reports a summary per replica, and answers only once the router serves the
// new generation.
func TestRollingReloadAllReplicas(t *testing.T) {
	f := newTestFleet(t, 3, Options{}, nil)
	libB := buildFleetLib(t, f.model, 4)
	for _, srv := range f.srvs {
		srv.SetReloadSource(func(string) (*core.Library, *sim.Model, error) {
			return libB, nil, nil
		})
	}
	resp, err := http.Post(f.rts.URL+"/v1/reload", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rolling reload: status %d", resp.StatusCode)
	}
	var out struct {
		Reloads []reloadSummary `json:"reloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Reloads) != 3 {
		t.Fatalf("%d reload summaries for 3 replicas", len(out.Reloads))
	}
	for i, sum := range out.Reloads {
		if sum.Err != "" {
			t.Errorf("replica %d reload error: %s", i, sum.Err)
		}
		if sum.Generation == 0 {
			t.Errorf("replica %d reported generation 0", i)
		}
	}
	for i, srv := range f.srvs {
		if srv.Library() != libB {
			t.Errorf("replica %d did not swap libraries", i)
		}
	}
	assertServes(t, f, out.Reloads[0].Generation, libB)
}

// assertServes checks that the router answers every fleet shape with lib's
// choice, stamped gen.
func assertServes(t *testing.T, f *testFleet, gen uint64, lib *core.Library) {
	t.Helper()
	for _, sh := range fleetShapes {
		status, d := routerSelect(t, f.rts.URL, sh)
		if status != http.StatusOK || d.Generation != gen || d.Index != lib.ChooseIndex(sh) || d.Config != lib.Configs[d.Index].String() {
			t.Fatalf("%v: status %d, decision %+v; want index %d stamped %d", sh, status, d, lib.ChooseIndex(sh), gen)
		}
	}
}

// A replica reloaded behind the router's back (its own POST /v1/reload, not
// the router's) is caught up by the next probe round: the router pulls the
// new artifact and answers with it, stamped with the replica's generation. A
// replica restarted at a lower generation never takes the router back.
func TestProbeAdoptsOutOfBandReload(t *testing.T) {
	var handlers [2]atomic.Pointer[http.Handler]
	f := newTestFleet(t, 2, Options{}, func(i int, h http.Handler) http.Handler {
		handlers[i].Store(&h)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handlers[i].Load()).ServeHTTP(w, r)
		})
	})
	libB := buildFleetLib(t, f.model, 4)
	gen, err := f.srvs[1].Reload("", libB, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertServes(t, f, 1, f.lib)
	f.router.ProbeOnce(context.Background())
	assertServes(t, f, gen, libB)

	// Replica 1 restarts on the old artifact, its counter back at 1.
	restarted := serve.New(f.lib, f.model, serve.Options{})
	defer restarted.Close()
	h := restarted.Handler()
	handlers[1].Store(&h)
	f.router.ProbeOnce(context.Background())
	assertServes(t, f, gen, libB)
	if n := f.router.metrics.pullErrors.Load(); n != 0 {
		t.Errorf("%d pull errors; an older generation is not pulled at all", n)
	}
}

// A pulled artifact older than the served generation is refused: when a
// replica's /healthz promises more than its /v1/library delivers, the router
// keeps its generation and counts the failed pull.
func TestCatchUpRefusesOlderGeneration(t *testing.T) {
	f := newTestFleet(t, 1, Options{}, nil)
	libB := buildFleetLib(t, f.model, 4)
	if err := f.router.engine.Adopt("", libB, 5); err != nil {
		t.Fatal(err)
	}
	err := f.router.catchUp(context.Background(), replicaName(0), map[string]uint64{f.model.Dev.Name: 9})
	if err == nil || !strings.Contains(err.Error(), "behind") {
		t.Fatalf("catch-up onto a generation-1 artifact: error %v, want a refusal", err)
	}
	assertServes(t, f, 5, libB)
	if n := f.router.metrics.pullErrors.Load(); n != 1 {
		t.Errorf("pull errors %d, want 1", n)
	}
}
