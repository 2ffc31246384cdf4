package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
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

// A batch the request itself makes unanswerable gets the client error a
// single selectd gives, byte for byte, whether the fleet is up or dark: never
// a 200 with a blank decision.
func TestBatchClientErrorIsTheAnswer(t *testing.T) {
	const body = `{"device":"martian","shapes":[{"m":784,"k":1152,"n":256},{"m":1,"k":4096,"n":1000}]}`
	for _, tc := range []struct {
		name    string
		fleetUp bool
	}{
		{name: "replicas up", fleetUp: true},
		{name: "every replica down", fleetUp: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFleet(t, 3, Options{}, nil)
			direct, want := postBatch(t, f.reps[0].URL, body)
			if !tc.fleetUp {
				for i, ts := range f.reps {
					ts.Close()
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
			if direct != http.StatusBadRequest || !bytes.Equal(got, want) {
				t.Errorf("router body %q, replica answers %d %q", got, direct, want)
			}
		})
	}
}

// The router enforces selectd's request contract itself: each select and
// batch body gets the status and body a bare replica gives it, whether it is
// malformed, carries unknown fields or trailing data, names an unknown
// device, is empty, over the size limit, or fine. The router answers with
// selectd's own handlers over the artifact it pulled.
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
	f := newTestFleet(t, 3, Options{}, nil)
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
