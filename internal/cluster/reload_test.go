package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/sim"
)

// A rolling reload (no replica named) rolls every up replica, one at a time,
// and reports a summary per replica.
func TestRollingReloadAllReplicas(t *testing.T) {
	f := newTestFleet(t, 3, Options{HedgeDelay: -1}, nil)
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
}
