package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

func TestTrainerAndPrunerLookup(t *testing.T) {
	for _, name := range []string{"tree", "forest", "1nn", "3nn", "linear-svm", "radial-svm"} {
		if _, err := trainerFor(name); err != nil {
			t.Errorf("trainerFor(%q): %v", name, err)
		}
	}
	if _, err := trainerFor("martian"); err == nil {
		t.Error("unknown trainer accepted")
	}
	for _, name := range []string{"top-n", "k-means", "hdbscan", "pca+k-means", "decision-tree", "greedy-cover"} {
		if _, err := prunerFor(name); err != nil {
			t.Errorf("prunerFor(%q): %v", name, err)
		}
	}
	if _, err := prunerFor("martian"); err == nil {
		t.Error("unknown pruner accepted")
	}
	names := []string{"r9nano", "gen9", "mali"}
	for _, s := range device.Synthetics() {
		names = append(names, s.Name) // held-out specs are servable by name
	}
	for _, name := range names {
		if _, err := deviceFor(name); err != nil {
			t.Errorf("deviceFor(%q): %v", name, err)
		}
	}
	if _, err := deviceFor("martian"); err == nil {
		t.Error("unknown device accepted")
	}
}

// TestBuildLibraryFromArtifact checks the persisted-artifact path: a library
// saved to disk is what the daemon loads back.
func TestBuildLibraryFromArtifact(t *testing.T) {
	model := sim.New(device.R9Nano())
	shapes := []gemm.Shape{
		{M: 1, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64}, {M: 784, K: 1152, N: 256},
		{M: 49, K: 4608, N: 512}, {M: 196, K: 384, N: 64}, {M: 3136, K: 128, N: 128},
		{M: 12544, K: 27, N: 32}, {M: 49, K: 960, N: 160}, {M: 100352, K: 3, N: 64},
		{M: 196, K: 512, N: 512},
	}
	ds := dataset.Build(model, shapes, gemm.AllConfigs()[:80])
	lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 42)

	path := filepath.Join(t.TempDir(), "lib.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveLibrary(f, lib); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := loadLibrary(path, device.R9Nano().Name, false)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SelectorName() != lib.SelectorName() {
		t.Fatalf("selector %q, want %q", loaded.SelectorName(), lib.SelectorName())
	}
	for _, s := range shapes {
		if loaded.Choose(s) != lib.Choose(s) {
			t.Fatalf("loaded library disagrees on %v", s)
		}
	}

	if _, err := loadLibrary(filepath.Join(t.TempDir(), "missing.json"), "", false); err == nil {
		t.Error("missing artifact accepted")
	}

	// The artifact above is untagged (SaveLibrary): fine for a single-device
	// daemon, rejected when -devices names several devices and every artifact
	// must prove which backend it belongs to.
	if _, err := loadLibrary(path, device.R9Nano().Name, true); err == nil {
		t.Error("untagged artifact accepted in strict (multi-device) mode")
	}

	// A specialist artifact is not a unified one.
	if _, err := loadUnifiedLibrary(path); err == nil {
		t.Error("shape-only artifact accepted by the unified loader")
	}
}

// A device-tagged artifact must refuse to load for a different device, and
// load cleanly for its own.
func TestLoadLibraryDeviceTag(t *testing.T) {
	model := sim.New(device.IntegratedGen9())
	shapes := []gemm.Shape{{M: 8, K: 8, N: 8}, {M: 64, K: 64, N: 64}, {M: 256, K: 256, N: 256}}
	ds := dataset.Build(model, shapes, gemm.AllConfigs()[:40])
	lib := core.BuildLibrary(ds, core.TopN{}, core.DecisionTreeSelector{}, 4, 42)

	path := filepath.Join(t.TempDir(), "gen9.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveLibraryForDevice(f, lib, device.IntegratedGen9().Name); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := loadLibrary(path, device.IntegratedGen9().Name, false); err != nil {
		t.Fatalf("own device rejected: %v", err)
	}
	if _, err := loadLibrary(path, device.R9Nano().Name, false); err == nil {
		t.Fatal("foreign device tag accepted")
	}
	// A properly tagged artifact passes strict mode too.
	if _, err := loadLibrary(path, device.IntegratedGen9().Name, true); err != nil {
		t.Fatalf("tagged artifact rejected in strict mode: %v", err)
	}
}

func TestDevicesForParsing(t *testing.T) {
	specs, err := devicesFor("r9nano, gen9,mali")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Name != device.R9Nano().Name {
		t.Fatalf("parsed %d specs, first %q", len(specs), specs[0].Name)
	}
	for _, bad := range []string{"", " , ", "r9nano,martian", "gen9,gen9"} {
		if _, err := devicesFor(bad); err == nil {
			t.Errorf("devicesFor(%q): expected error", bad)
		}
	}
}

// selectd has no decision cache, circuit breaker, request deadline, batch
// worker pool, batch-size setting, batch admission budget or latency shed
// threshold, so their flags must fail loudly rather than be accepted and
// ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, arg := range []string{
		"-cache=4096", "-breaker-threshold=5", "-breaker-cooldown=1s",
		"-timeout=5s", "-workers=4", "-max-batch=1024",
		"-max-inflight=256", "-budgets=r9nano=64", "-shed-latency=10ms",
	} {
		var out bytes.Buffer
		err := run(context.Background(), []string{arg}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run with %s: error %v, want an unknown-flag error", arg, err)
		}
	}
}

// logWatch is a goroutine-safe log sink that signals every write, so a test
// can wait for a line to be logged.
type logWatch struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	written chan struct{} // capacity 1: one pending signal covers any number of writes
}

func newLogWatch() *logWatch { return &logWatch{written: make(chan struct{}, 1)} }

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	n, err := l.buf.Write(p)
	l.mu.Unlock()
	select {
	case l.written <- struct{}{}:
	default:
	}
	return n, err
}

func (l *logWatch) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// await returns the first whitespace-delimited word after marker once a
// logged line contains it.
func (l *logWatch) await(t *testing.T, marker string) string {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		for _, line := range strings.Split(l.String(), "\n") {
			if _, rest, ok := strings.Cut(line, marker); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					return f[0]
				}
			}
		}
		select {
		case <-l.written:
		case <-timeout:
			t.Fatalf("no %q line logged; log so far:\n%s", marker, l.String())
		}
	}
}

// The daemon serves a select from a persisted artifact, then drains cleanly
// and stops listening once its context is cancelled (the SIGTERM path).
func TestRunServesAndDrains(t *testing.T) {
	model := sim.New(device.R9Nano())
	shapes := []gemm.Shape{
		{M: 1, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64}, {M: 784, K: 1152, N: 256},
		{M: 196, K: 2304, N: 512}, {M: 12544, K: 27, N: 32}, {M: 49, K: 960, N: 160},
	}
	ds := dataset.Build(model, shapes, gemm.AllConfigs()[:120])
	lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 42)
	path := filepath.Join(t.TempDir(), "lib.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveLibrary(f, lib); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := newLogWatch()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-library", path}, logs)
	}()
	addr := "http://" + logs.await(t, "listening on ")

	resp, err := http.Post(addr+"/v1/select", "application/json", strings.NewReader(`{"m":784,"k":1152,"n":256}`))
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Config string `json:"config"`
		Index  int    `json:"index"`
	}
	err = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("select: status %d, decode error %v", resp.StatusCode, err)
	}
	if want := lib.ChooseIndex(gemm.Shape{M: 784, K: 1152, N: 256}); d.Index != want || d.Config != lib.Configs[want].String() {
		t.Fatalf("decision %+v, want index %d of the artifact", d, want)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("selectd did not drain within 15s of cancel")
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("no clean-drain line in the log:\n%s", logs.String())
	}
	if resp, err := http.Post(addr+"/v1/select", "application/json", strings.NewReader(`{"m":1,"k":1,"n":1}`)); err == nil {
		resp.Body.Close()
		t.Error("selectd still accepting requests after it drained")
	}
}
