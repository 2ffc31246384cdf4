package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/device"
	"kernelselect/internal/sim"
)

// fetchLibrary fetches one backend's artifact and the generation stamped on
// it.
func fetchLibrary(url, device string) ([]byte, uint64, error) {
	resp, err := http.Get(url + "/v1/library?device=" + device)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /v1/library?device=%s: status %d, body %s", device, resp.StatusCode, body)
	}
	gen, err := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("GET /v1/library?device=%s: generation header: %v", device, err)
	}
	return body, gen, nil
}

func pullLibrary(t testing.TB, url, device string) ([]byte, uint64) {
	t.Helper()
	body, gen, err := fetchLibrary(url, device)
	if err != nil {
		t.Fatal(err)
	}
	return body, gen
}

// GET /v1/library serves each backend's artifact as a deployable library:
// loaded back with the non-strict loader and served on the same device
// model, it answers every dataset shape as the backend does, and its
// generation header is the one /healthz reports. Shape-only and unified
// backends alike.
func TestLibraryEndpointServesArtifact(t *testing.T) {
	multi, _ := multiTestServer(t, Options{})
	unified, _, _ := unifiedTestServer(t, Options{})
	for name, srv := range map[string]*Server{"multi": multi, "unified": unified} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			hz := decodeResp[healthzResponse](t, resp)
			for i, dev := range srv.Devices() {
				body, gen := pullLibrary(t, ts.URL, dev)
				if want := hz.Backends[i].Generation; gen != want {
					t.Errorf("%s: artifact generation %d, /healthz says %d", dev, gen, want)
				}
				lib, err := core.LoadLibraryForDevice(bytes.NewReader(body), dev)
				if err != nil {
					t.Fatalf("%s: pulled artifact does not load: %v", dev, err)
				}
				spec, err := device.ByName(dev)
				if err != nil {
					t.Fatal(err)
				}
				copySrv, err := NewMulti([]Backend{{Device: dev, Lib: lib, Model: sim.New(spec)}}, Options{})
				if err != nil {
					t.Fatalf("%s: pulled artifact does not serve: %v", dev, err)
				}
				for _, sh := range datasetShapes {
					want, err := srv.Decide(dev, sh)
					if err != nil {
						t.Fatal(err)
					}
					got, err := copySrv.Decide(dev, sh)
					if err != nil {
						t.Fatal(err)
					}
					if got.Index != want.Index || got.Config != want.Config {
						t.Fatalf("%s %v: pulled artifact chooses %s (index %d), backend %s (index %d)",
							dev, sh, got.Config, got.Index, want.Config, want.Index)
					}
				}
			}
			if body, _ := pullLibrary(t, ts.URL, ""); !bytes.Equal(body, mustPull(t, ts.URL, srv.Devices()[0])) {
				t.Error("an empty device did not select the default backend's artifact")
			}
			resp, err = http.Get(ts.URL + "/v1/library?device=martian")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("unknown device: status %d, want 400", resp.StatusCode)
			}
		})
	}
}

func mustPull(t testing.TB, url, device string) []byte {
	t.Helper()
	body, _ := pullLibrary(t, url, device)
	return body
}

// A pull racing reloads never pairs one generation's id with another's
// artifact: every pulled (generation, body) is byte-identical to the
// artifact the reload that created that generation swapped in.
func TestLibraryPullConsistentUnderReload(t *testing.T) {
	model := sim.New(device.R9Nano())
	libs := []*core.Library{buildLib(t, model, 6), buildLib(t, model, 4)}
	artifacts := make([][]byte, len(libs))
	for i, lib := range libs {
		var b bytes.Buffer
		if err := core.SaveLibraryForDevice(&b, lib, model.Dev.Name); err != nil {
			t.Fatal(err)
		}
		artifacts[i] = b.Bytes()
	}
	srv := New(libs[0], model, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pullers run until the reloader has swapped generations under at
	// least minPulls of their requests.
	const minPulls = 300
	var mu sync.Mutex
	slotOf := map[uint64]int{1: 0}
	type pulled struct {
		gen  uint64
		body []byte
	}
	var pulls []pulled
	var npulls atomic.Int64
	done := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				body, gen, err := fetchLibrary(ts.URL, "")
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				pulls = append(pulls, pulled{gen, body})
				mu.Unlock()
				npulls.Add(1)
			}
		}()
	}
	for i := 1; npulls.Load() < minPulls && len(errs) == 0; i++ {
		id, err := srv.Reload("", libs[i%2], nil)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		slotOf[id] = i % 2
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	seen := map[uint64]bool{}
	for _, p := range pulls {
		slot, ok := slotOf[p.gen]
		if !ok {
			t.Fatalf("pulled generation %d that no reload created", p.gen)
		}
		if !bytes.Equal(p.body, artifacts[slot]) {
			t.Fatalf("generation %d came with another generation's artifact", p.gen)
		}
		seen[p.gen] = true
	}
	if len(pulls) == 0 || len(seen) < 2 {
		t.Fatalf("%d pulls saw %d generations; the race was never exercised", len(pulls), len(seen))
	}
}

// Adopt stamps a swap with the given generation: a newer one serves the new
// library under that id, the same one is a no-op, an older one is refused,
// and later reloads number past it.
func TestAdopt(t *testing.T) {
	model := sim.New(device.R9Nano())
	libA, libB := buildLib(t, model, 6), buildLib(t, model, 4)
	srv := New(libA, model, Options{})
	defer srv.Close()

	if err := srv.Adopt("", libB, 7); err != nil {
		t.Fatalf("adopt generation 7: %v", err)
	}
	if gen, _ := srv.Generation(""); gen != 7 || srv.Library() != libB {
		t.Fatalf("after adopting 7: generation %d, library swapped %v", gen, srv.Library() == libB)
	}
	d, err := srv.Decide("", reloadShapes[3])
	if err != nil {
		t.Fatal(err)
	}
	if d.Generation != 7 || d.Index != libB.ChooseIndex(reloadShapes[3]) {
		t.Fatalf("decision %+v, want libB's choice stamped 7", d)
	}

	if err := srv.Adopt("", libA, 7); err != nil || srv.Library() != libB {
		t.Fatalf("adopting the served generation again: error %v, library swapped %v", err, srv.Library() != libB)
	}
	if err := srv.Adopt("", libA, 3); err == nil || srv.Library() != libB {
		t.Fatalf("adopting an older generation: error %v, library swapped %v", err, srv.Library() != libB)
	}
	if gen, _ := srv.Generation(""); gen != 7 {
		t.Fatalf("generation %d after refused adopts, want 7", gen)
	}
	if id, err := srv.Reload("", libA, nil); err != nil || id <= 7 {
		t.Fatalf("reload after adopting 7: generation %d, error %v", id, err)
	}
	if err := srv.Adopt("martian", libA, 99); err == nil {
		t.Error("adopt on an unknown device succeeded")
	}
}

// Adopt runs Reload's checks: a shape-only library never reaches a unified
// backend.
func TestAdoptRefusesKindMismatch(t *testing.T) {
	srv, _, specs := unifiedTestServer(t, Options{})
	model := sim.New(specs[0])
	if err := srv.Adopt(specs[0].Name, buildLib(t, model, 4), 50); err == nil {
		t.Fatal("a unified backend adopted a shape-only library")
	}
	if gen, _ := srv.Generation(specs[0].Name); gen == 50 {
		t.Fatal("the refused adopt moved the generation")
	}
}
