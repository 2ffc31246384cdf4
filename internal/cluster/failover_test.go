package cluster

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// The router failover table: who answers when replicas die, and how it is
// accounted. Each case marks a subset of a 3-replica fleet down, sends the
// same shard's request repeatedly, and checks (a) the answer re-hashes
// deterministically to the expected survivor, (b) wins are counted exactly
// once per request, (c) the local fallback is flagged degraded with reason
// replica_down when every candidate is dark.
func TestRouterFailoverTable(t *testing.T) {
	cases := []struct {
		name string
		// down replica positions, in this shard's candidate order (0 =
		// primary, 1 = first successor, ...).
		down []int
		// wantWinner is the candidate-order position expected to serve; -1
		// means the router-local fallback answers.
		wantWinner   int
		wantDegraded bool
	}{
		{name: "all up: primary serves", down: nil, wantWinner: 0},
		{name: "primary down: first successor", down: []int{0}, wantWinner: 1},
		{name: "primary+successor down: second successor", down: []int{0, 1}, wantWinner: 2},
		{name: "all down: degraded local fallback", down: []int{0, 1, 2}, wantWinner: -1, wantDegraded: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFleet(t, 3, Options{HedgeDelay: -1}, nil)
			shape := shapeWithPrimary(t, f.router, "", 0)
			order := f.router.ring.candidates("", shape)
			for _, pos := range tc.down {
				f.router.MarkDown(replicaName(order[pos]))
			}

			const requests = 5
			for i := 0; i < requests; i++ {
				status, d := routerSelect(t, f.rts.URL, shape)
				if status != http.StatusOK {
					t.Fatalf("request %d: status %d", i, status)
				}
				if d.Degraded != tc.wantDegraded {
					t.Fatalf("request %d: degraded=%v, want %v (%+v)", i, d.Degraded, tc.wantDegraded, d)
				}
				if tc.wantDegraded && d.DegradedReason != "replica_down" {
					t.Fatalf("request %d: degraded reason %q, want replica_down", i, d.DegradedReason)
				}
			}

			// Accounting: every request counted once, on exactly the winner.
			var winSum uint64
			for i := range f.router.metrics.wins {
				winSum += f.router.metrics.wins[i].Load()
			}
			if tc.wantWinner < 0 {
				if winSum != 0 {
					t.Errorf("replica wins %d with the fleet dark, want 0", winSum)
				}
				if got := f.router.metrics.fallbacks.Load(); got != requests {
					t.Errorf("fallbacks %d, want %d", got, requests)
				}
			} else {
				winner := order[tc.wantWinner]
				if got := f.router.metrics.wins[winner].Load(); got != requests {
					t.Errorf("winner %s wins %d, want %d", replicaName(winner), got, requests)
				}
				if winSum != requests {
					t.Errorf("total wins %d, want %d (each request counted once)", winSum, requests)
				}
			}
		})
	}
}

// A slow primary loses to the hedge: the hedged attempt launches after
// HedgeDelay, wins, and is counted exactly once — one win total, one hedge,
// one hedge win, one 200.
func TestHedgedWinnerCountedOnce(t *testing.T) {
	const primaryDelay = 400 * time.Millisecond
	var slowIdx = -1
	f := newTestFleet(t, 2, Options{HedgeDelay: 10 * time.Millisecond, Retries: 2}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == slowIdx && strings.HasPrefix(r.URL.Path, "/v1/select") {
				time.Sleep(primaryDelay)
			}
			h.ServeHTTP(w, r)
		})
	})
	shape := shapeWithPrimary(t, f.router, "", 0)
	order := f.router.ring.candidates("", shape)
	slowIdx = order[0]

	start := time.Now()
	status, d := routerSelect(t, f.rts.URL, shape)
	if status != http.StatusOK || d.Degraded {
		t.Fatalf("hedged request: status %d degraded=%v", status, d.Degraded)
	}
	if elapsed := time.Since(start); elapsed >= primaryDelay {
		t.Fatalf("request took %v — hedge did not win over the %v primary delay", elapsed, primaryDelay)
	}

	m := f.router.metrics
	if got := m.hedges.Load(); got != 1 {
		t.Errorf("hedges %d, want 1", got)
	}
	if got := m.hedgeWins.Load(); got != 1 {
		t.Errorf("hedge wins %d, want 1", got)
	}
	if got := m.wins[order[1]].Load(); got != 1 {
		t.Errorf("hedge target wins %d, want 1", got)
	}
	var winSum uint64
	for i := range m.wins {
		winSum += m.wins[i].Load()
	}
	if winSum != 1 {
		t.Errorf("total wins %d, want exactly 1 — hedged winners must be counted once", winSum)
	}
}

// A replica whose listener is gone (connection refused) is marked down by the
// failed attempt itself, and the retry serves the request from the successor
// — the client sees one ordinary 200.
func TestDeadReplicaMarkedDownAndRetried(t *testing.T) {
	f := newTestFleet(t, 2, Options{HedgeDelay: -1, Retries: 2}, nil)
	shape := shapeWithPrimary(t, f.router, "", 0)
	order := f.router.ring.candidates("", shape)

	// Sever the primary's listener.
	f.reps[order[0]].Close()

	status, d := routerSelect(t, f.rts.URL, shape)
	if status != http.StatusOK || d.Degraded {
		t.Fatalf("failover request: status %d degraded=%v (%+v)", status, d.Degraded, d)
	}
	if got := f.router.health.state(replicaName(order[0])); got != StateDown {
		t.Errorf("dead primary state %q, want %q", got, StateDown)
	}
	if got := f.router.metrics.wins[order[1]].Load(); got != 1 {
		t.Errorf("successor wins %d, want 1", got)
	}

	// Subsequent requests skip the dead primary outright: no more transport
	// errors accrue.
	errsBefore := f.router.metrics.repErrors.Load()
	for i := 0; i < 3; i++ {
		if status, d := routerSelect(t, f.rts.URL, shape); status != http.StatusOK || d.Degraded {
			t.Fatalf("re-hashed request %d: status %d degraded=%v", i, status, d.Degraded)
		}
	}
	if got := f.router.metrics.repErrors.Load(); got != errsBefore {
		t.Errorf("re-hashed requests still hit the dead replica: errors %d → %d", errsBefore, got)
	}
}

// An unpriceable request (invalid shape) stays a client error even with the
// fleet dark — the no-5xx guarantee is scoped to priceable shapes.
func TestUnpriceableShapeStays400(t *testing.T) {
	f := newTestFleet(t, 2, Options{HedgeDelay: -1}, nil)
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
