package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"kernelselect/internal/serve"
)

// postBatch sends one raw batch body and returns (status, body).
func postBatch(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	return postRaw(t, url+"/v1/select/batch", body)
}

// postRaw sends one raw JSON body and returns (status, body).
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// A batch group whose primary answers 503 fails over along the candidate
// order like a single request would: the shapes get full-quality answers
// from the successor, and the saturated primary earns backoff, not a
// mark-down.
func TestBatchFailsOverOnSaturation(t *testing.T) {
	saturated := -1
	f := newTestFleet(t, 2, Options{HedgeDelay: -1}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == saturated && r.URL.Path == "/v1/select/batch" {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	shape := shapeWithPrimary(t, f.router, "", 0)
	saturated = 0

	status, body := postBatch(t, f.rts.URL,
		fmt.Sprintf(`{"shapes":[{"m":%d,"k":%d,"n":%d}]}`, shape.M, shape.K, shape.N))
	var out struct {
		Results []serve.Decision `json:"results"`
	}
	if err := json.Unmarshal(body, &out); status != http.StatusOK || err != nil || len(out.Results) != 1 {
		t.Fatalf("batch: status %d, body %s", status, body)
	}
	if d := out.Results[0]; d.Degraded || d.Config == "" {
		t.Fatalf("failover answer %+v, want the successor's full-quality decision", d)
	}
	if wins := f.router.metrics.wins[1].Load(); wins != 1 {
		t.Errorf("successor wins %d, want 1 — the group did not fail over", wins)
	}
	if errs := f.router.metrics.repErrors.Load(); errs != 1 {
		t.Errorf("replica errors %d, want 1 for the saturated primary", errs)
	}
	if state := f.router.health.state(replicaName(0)); state != StateUp {
		t.Errorf("primary marked %q after a saturation 503, want up (backoff, not death)", state)
	}
	if f.router.backoffUntil[0].Load() == 0 {
		t.Error("saturated primary earned no backoff")
	}
}

// A batch the request itself makes unanswerable gets the client error a
// single selectd would give, whether the fleet answers or the local fallback
// does: never a 200 with a blank decision, and never a replica error.
func TestBatchClientErrorIsTheAnswer(t *testing.T) {
	const body = `{"device":"martian","shapes":[{"m":784,"k":1152,"n":256},{"m":1,"k":4096,"n":1000}]}`
	cases := []struct {
		name    string
		fleetUp bool // then the body must be byte-identical to a replica's own answer
	}{
		{name: "replicas up", fleetUp: true},
		{name: "every replica down", fleetUp: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFleet(t, 3, Options{HedgeDelay: -1}, nil)
			if !tc.fleetUp {
				for i := range f.srvs {
					f.router.MarkDown(replicaName(i))
				}
			}
			status, got := postBatch(t, f.rts.URL, body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", status, got)
			}
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(got, &eb); err != nil || !strings.Contains(eb.Error, `unknown device "martian"`) {
				t.Fatalf("body %s, want an unknown-device error", got)
			}
			if tc.fleetUp {
				direct, want := postBatch(t, f.reps[0].URL, body)
				if direct != http.StatusBadRequest || !bytes.Equal(got, want) {
					t.Errorf("router body %q, replica answers %d %q", got, direct, want)
				}
			}
			if errs := f.router.metrics.repErrors.Load(); errs != 0 {
				t.Errorf("replica errors %d, want 0: a client error is not the replica's fault", errs)
			}
			if fb := f.router.metrics.fallbacks.Load(); fb != 0 {
				t.Errorf("fallbacks %d, want 0", fb)
			}
		})
	}
}

// The router enforces selectd's request contract itself: each select and
// batch body gets the status and body a bare replica gives it, whether it is
// malformed, carries unknown fields or trailing data, names an unknown
// device, is empty, over the size limit, or fine. Both tiers parse with
// serve's parsers and resolve the device afterwards. The router must refuse
// an oversized batch before fan-out — each replica sees only its group, so
// otherwise the refusal would depend on how the shapes hash across the fleet.
func TestRouterBatchMatchesReplica(t *testing.T) {
	var oversized strings.Builder
	oversized.WriteString(`{"shapes":[`)
	for i := 0; i < 1500; i++ {
		if i > 0 {
			oversized.WriteByte(',')
		}
		s := fleetShapes[i%len(fleetShapes)]
		fmt.Fprintf(&oversized, `{"m":%d,"k":%d,"n":%d}`, s.M, s.K, s.N)
	}
	oversized.WriteString(`]}`)

	const batch, sel = "/v1/select/batch", "/v1/select"
	f := newTestFleet(t, 3, Options{HedgeDelay: -1}, nil)
	for _, tc := range []struct{ name, endpoint, body string }{
		{"empty shapes", batch, `{"shapes":[]}`},
		{"no shapes", batch, `{}`},
		{"1500 shapes", batch, oversized.String()},
		{"invalid shape", batch, `{"shapes":[{"m":784,"k":1152,"n":256},{"m":0,"k":1,"n":1}]}`},
		{"unknown device", batch, `{"device":"martian","shapes":[{"m":1,"k":1,"n":1}]}`},
		{"unknown device, no shapes", batch, `{"device":"martian","shapes":[]}`},
		{"unknown field", batch, `{"shapes":[{"m":784,"k":1152,"n":256}],"extra":1}`},
		{"unknown shape field", batch, `{"shapes":[{"m":784,"k":1152,"n":256,"q":2}]}`},
		{"device inside a shape", batch, `{"shapes":[{"m":784,"k":1152,"n":256,"device":"amd-r9-nano"}]}`},
		{"truncated", batch, `{"shapes":[`},
		{"trailing data", batch, `{"shapes":[{"m":784,"k":1152,"n":256}]}{"shapes":[]}`},
		{"valid", batch, `{"shapes":[{"m":784,"k":1152,"n":256},{"m":1,"k":4096,"n":1000},{"m":3136,"k":64,"n":64}]}`},
		{"select unknown field", sel, `{"m":784,"k":1152,"n":256,"q":2}`},
		{"select trailing data", sel, `{"m":784,"k":1152,"n":256}{"m":1}`},
		{"select truncated", sel, `{"m":`},
		{"select invalid shape, unknown device", sel, `{"m":0,"k":1,"n":1,"device":"martian"}`},
		{"select valid", sel, `{"m":784,"k":1152,"n":256}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, got := postRaw(t, f.rts.URL+tc.endpoint, tc.body)
			wantStatus, want := postRaw(t, f.reps[0].URL+tc.endpoint, tc.body)
			if status != wantStatus || !bytes.Equal(got, want) {
				t.Errorf("router answers %d %.200q, replica %d %.200q", status, got, wantStatus, want)
			}
		})
	}
}
