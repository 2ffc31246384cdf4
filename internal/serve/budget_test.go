package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestPerBackendBudgetIsolation is the acceptance check for admission
// isolation: with one device's budget fully saturated (100% of its batches
// degraded to the fallback), the other device must keep serving every batch
// at full quality — the per-request service level that determines its
// throughput is identical to its unloaded baseline. The assertion is
// functional rather than wall-clock (CI timing is noisy): a backend whose
// every request is full-service does the same work per request as in the
// baseline phase, and the saturated device consumes none of its tokens.
func TestPerBackendBudgetIsolation(t *testing.T) {
	srv, ts := multiTestServer(t, Options{MaxInFlight: 8})
	nano, gen9 := srv.backends[0], srv.backends[1]
	if nano.budgetCap != 4 || gen9.budgetCap != 4 {
		t.Fatalf("budgets %d/%d, want an even 4/4 split of 8", nano.budgetCap, gen9.budgetCap)
	}

	query := func(dev string, m int) Decision {
		t.Helper()
		br := decodeResp[batchResponse](t, postJSON(t, ts.URL+"/v1/select/batch",
			batchRequest{Device: dev, Shapes: []batchShape{{M: m, K: 33, N: 65}}}))
		if len(br.Results) != 1 {
			t.Fatalf("%d results for a one-shape batch", len(br.Results))
		}
		return br.Results[0]
	}

	// Baseline: gen9 unloaded, every batch full service.
	for i := 0; i < 20; i++ {
		if d := query(gen9.name, 100+i); d.Degraded {
			t.Fatalf("baseline gen9 request %d degraded: %+v", i, d)
		}
	}

	// Saturate nano to 100%: every token held, so all its batches degrade.
	var releases []func()
	for {
		rel, ok := nano.acquire()
		if !ok {
			break
		}
		releases = append(releases, rel)
	}
	defer func() {
		for _, rel := range releases {
			rel()
		}
	}()
	for i := 0; i < 20; i++ {
		if d := query(nano.name, 200+i); !d.Degraded || d.DegradedReason != "budget" {
			t.Fatalf("saturated nano request %d not degraded(budget): %+v", i, d)
		}
	}

	// Isolation: gen9's service level is unchanged — 100% full service,
	// zero sheds, zero degradations.
	for i := 0; i < 20; i++ {
		if d := query(gen9.name, 300+i); d.Degraded {
			t.Fatalf("gen9 request %d degraded while nano saturated: %+v", i, d)
		}
	}
	if got := gen9.shed.Load(); got != 0 {
		t.Errorf("gen9 shed %d requests", got)
	}
	if got := gen9.degraded.Load(); got != 0 {
		t.Errorf("gen9 degraded = %d, want 0", got)
	}
	if got := nano.degraded.Load(); got != 20 {
		t.Errorf("nano degraded(budget) = %d, want 20", got)
	}
}

func TestBudgetOverrides(t *testing.T) {
	srv, _ := multiTestServer(t, Options{
		MaxInFlight: 8,
		Budgets:     map[string]int{"integrated-gen9": 1},
	})
	// The override applies only to the named device; unnamed devices keep
	// the even split.
	for _, be := range srv.backends {
		want := 4
		if o, ok := srv.opts.Budgets[be.name]; ok {
			want = o
		}
		if be.budgetCap != want {
			t.Errorf("%s budget %d, want %d", be.name, be.budgetCap, want)
		}
	}
}

func TestBudgetOverrideValidation(t *testing.T) {
	srv, _ := testServer(t, Options{})
	be := srv.backends[0]
	gen := be.gen.Load()
	_, err := NewMulti([]Backend{{Device: be.name, Lib: gen.lib, Model: gen.model}},
		Options{Budgets: map[string]int{be.name: 0}})
	if err == nil {
		t.Fatal("zero budget override accepted")
	}
}

// Mixed concurrent select/batch traffic must conserve budget tokens exactly:
// every acquire has one release, across both the full-service and degraded
// paths.
func TestBudgetTokenConservation(t *testing.T) {
	srv, ts := multiTestServer(t, Options{MaxInFlight: 4})
	devices := srv.Devices()

	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev := devices[g%len(devices)]
			for i := 0; i < 25; i++ {
				var raw []byte
				var url string
				if i%3 == 0 {
					url = ts.URL + "/v1/select/batch"
					raw, _ = json.Marshal(batchRequest{Device: dev, Shapes: []batchShape{
						{M: 1 + g, K: 1 + i, N: 7}, {M: 2 + g, K: 2 + i, N: 9},
					}})
				} else {
					url = ts.URL + "/v1/select"
					raw, _ = json.Marshal(shapeRequest{M: 1 + g, K: 1 + i, N: 13, Device: dev})
				}
				resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	deadline := time.Now().Add(time.Second)
	for _, be := range srv.backends {
		for be.budgetFree() != be.budgetCap && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if free := be.budgetFree(); free != be.budgetCap {
			t.Errorf("%s: budget free %d, cap %d — tokens lost or double-counted", be.name, free, be.budgetCap)
		}
		if inflight := be.inflight.Load(); inflight != 0 {
			t.Errorf("%s: inflight gauge %d after quiesce", be.name, inflight)
		}
	}
}
