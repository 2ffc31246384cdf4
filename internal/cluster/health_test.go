package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Gossip merge is last-observation-wins per replica: higher Seq adopts, equal
// or lower keeps the local entry.
func TestHealthMergeSeqWins(t *testing.T) {
	cases := []struct {
		name      string
		localSeq  uint64
		remoteSeq uint64
		wantState string
	}{
		{name: "stale remote ignored", localSeq: 5, remoteSeq: 3, wantState: StateUp},
		{name: "equal seq keeps local", localSeq: 5, remoteSeq: 5, wantState: StateUp},
		{name: "fresher remote adopted", localSeq: 5, remoteSeq: 7, wantState: StateDown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := newHealthTable([]string{"replica-a", "replica-b"})
			for i := uint64(0); i < tc.localSeq; i++ {
				tbl.observe("replica-a", StateUp, nil, "")
			}
			adopted := tbl.merge(View{Replicas: []ReplicaHealth{
				{Name: "replica-a", State: StateDown, Seq: tc.remoteSeq, Err: "peer saw it die"},
				{Name: "replica-zz", State: StateDown, Seq: 99}, // unknown: ignored
			}})
			if got := tbl.state("replica-a"); got != tc.wantState {
				t.Errorf("state %q, want %q (adopted=%d)", got, tc.wantState, adopted)
			}
			wantAdopted := 0
			if tc.remoteSeq > tc.localSeq {
				wantAdopted = 1
			}
			if adopted != wantAdopted {
				t.Errorf("adopted %d entries, want %d", adopted, wantAdopted)
			}
		})
	}
}

// Two routers over the same fleet converge through POST /v1/cluster: A's
// fresher down observation reaches B and B's view flips.
func TestClusterGossipConverges(t *testing.T) {
	f := newTestFleet(t, 2, Options{Name: "router-a"}, nil)

	// Second router over the same replicas.
	reps := make([]*Replica, len(f.reps))
	for i, ts := range f.reps {
		reps[i] = NewReplica(replicaName(i), ts.URL, nil)
	}
	b, err := New(context.Background(), Options{Name: "router-b", Replicas: reps})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	f.router.MarkDown("replica-a")
	view := f.router.View()
	if view.Router != "router-a" {
		t.Fatalf("view attributed to %q", view.Router)
	}

	// Deliver A's view to B over the wire.
	bts := newRouterServer(t, b)
	body, _ := json.Marshal(view)
	resp, err := http.Post(bts.URL+"/v1/cluster", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gossip post: status %d", resp.StatusCode)
	}
	if got := b.health.state("replica-a"); got != StateDown {
		t.Errorf("router-b state for replica-a is %q after gossip, want %q", got, StateDown)
	}
	if got := b.health.state("replica-b"); got != StateUp {
		t.Errorf("router-b state for replica-b flipped to %q", got)
	}

	// GET /v1/cluster serves the merged view.
	resp, err = http.Get(bts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got View
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Replicas) != 2 || got.Replicas[0].Name != "replica-a" || got.Replicas[0].State != StateDown {
		t.Errorf("merged view %+v", got)
	}
}

// ProbeOnce recovers a wrongly-down replica (it answers healthz) and demotes
// a dead one, folding per-device generations into the view.
func TestProbeOnceReconverges(t *testing.T) {
	f := newTestFleet(t, 2, Options{}, nil)

	// Falsely down: a probe round brings it back.
	f.router.MarkDown("replica-a")
	view := f.router.ProbeOnce(context.Background())
	for _, e := range view.Replicas {
		if e.State != StateUp {
			t.Errorf("replica %s state %q after probe, want up", e.Name, e.State)
		}
		if e.Generations["amd-r9-nano"] == 0 {
			t.Errorf("replica %s probe carried no generation: %+v", e.Name, e)
		}
	}

	// Actually dead: the probe demotes it and records the error.
	f.reps[1].Close()
	view = f.router.ProbeOnce(context.Background())
	if got := view.Replicas[1].State; got != StateDown {
		t.Errorf("dead replica state %q after probe, want down", got)
	}
	if view.Replicas[1].Err == "" {
		t.Error("dead replica has no recorded probe error")
	}
	if got := view.Replicas[0].State; got != StateUp {
		t.Errorf("live replica state %q after probe, want up", got)
	}
}

// newRouterServer serves a second router over httptest with cleanup.
func newRouterServer(t *testing.T, r *Router) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	return ts
}
