package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

// testServer builds a server over a small sim-priced library: 24 shapes ×
// 160 configurations keeps setup under a second.
func testServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	model := sim.New(device.R9Nano())
	shapes := []gemm.Shape{
		{M: 1, K: 4096, N: 1000}, {M: 4, K: 4096, N: 1000}, {M: 16, K: 4096, N: 1000},
		{M: 3136, K: 64, N: 64}, {M: 12544, K: 64, N: 64}, {M: 3136, K: 576, N: 128},
		{M: 784, K: 1152, N: 256}, {M: 196, K: 2304, N: 512}, {M: 49, K: 4608, N: 512},
		{M: 12544, K: 27, N: 32}, {M: 49, K: 960, N: 160}, {M: 196, K: 384, N: 64},
		{M: 784, K: 144, N: 24}, {M: 3136, K: 32, N: 192}, {M: 12544, K: 16, N: 96},
		{M: 100352, K: 3, N: 64}, {M: 49, K: 320, N: 1280}, {M: 196, K: 96, N: 576},
		{M: 784, K: 24, N: 144}, {M: 3136, K: 128, N: 128}, {M: 196, K: 512, N: 512},
		{M: 1, K: 25088, N: 4096}, {M: 64, K: 25088, N: 4096}, {M: 50176, K: 64, N: 64},
	}
	ds := dataset.Build(model, shapes, gemm.AllConfigs()[:160])
	lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 6, 42)
	srv := New(lib, model, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeResp[T any](t testing.TB, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestSelectRoundTrip(t *testing.T) {
	srv, ts := testServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/select", shapeRequest{M: 784, K: 1152, N: 256})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	d := decodeResp[Decision](t, resp)

	want := srv.Library().Choose(gemm.Shape{M: 784, K: 1152, N: 256})
	if d.Config != want.String() {
		t.Errorf("online chose %s, offline %s", d.Config, want)
	}
	if d.Shape != "784x1152x256" {
		t.Errorf("shape echoed as %q", d.Shape)
	}
	if d.KernelID != want.KernelID() {
		t.Errorf("kernel id %q, want %q", d.KernelID, want.KernelID())
	}
	if gen, _ := srv.Generation(""); d.Generation != gen {
		t.Errorf("decision %+v, want generation %d", d, gen)
	}
}

func TestSelectRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, Options{})
	oversized := `{"shapes":[` + strings.Repeat(`{"m":1,"k":1,"n":1},`, MaxBatch) + `{"m":1,"k":1,"n":1}]}`
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"not json", "/v1/select", "}{"},
		{"unknown field", "/v1/select", `{"m":1,"k":1,"n":1,"q":9}`},
		{"zero dim", "/v1/select", `{"m":0,"k":1,"n":1}`},
		{"negative dim", "/v1/select", `{"m":-5,"k":1,"n":1}`},
		{"trailing garbage", "/v1/select", `{"m":1,"k":1,"n":1}{"m":2}`},
		{"empty batch", "/v1/select/batch", `{"shapes":[]}`},
		{"oversized batch", "/v1/select/batch", oversized},
		{"bad batch shape", "/v1/select/batch", `{"shapes":[{"m":1,"k":0,"n":1}]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/select")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint: status %d, want 405", resp.StatusCode)
	}
}

func TestConfigsEndpoint(t *testing.T) {
	srv, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/configs")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	c := decodeResp[configsResponse](t, resp)
	if c.Selector != srv.Library().SelectorName() {
		t.Errorf("selector %q, want %q", c.Selector, srv.Library().SelectorName())
	}
	if c.Count != len(srv.Library().Configs) || len(c.Configs) != c.Count || len(c.KernelIDs) != c.Count {
		t.Fatalf("count %d, %d configs, %d kernel ids", c.Count, len(c.Configs), len(c.KernelIDs))
	}
	for i, name := range c.Configs {
		if name != srv.Library().Configs[i].String() {
			t.Errorf("config %d: %q, want %q", i, name, srv.Library().Configs[i])
		}
	}
}

func TestHealthzAndDraining(t *testing.T) {
	srv, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy: status %d", resp.StatusCode)
	}
	// Nothing warms, so every backend reports warm_complete from the start:
	// readiness checks that poll it never wait.
	for _, b := range decodeResp[healthzResponse](t, resp).Backends {
		if !b.WarmComplete {
			t.Errorf("%s: warm_complete false", b.Device)
		}
	}

	var draining atomic.Bool
	srv.SetDrainCheck(draining.Load)
	draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterSeconds {
		t.Errorf("draining Retry-After = %q, want %q", got, retryAfterSeconds)
	}
}

// metricValue extracts the first sample matching the (possibly labelled)
// metric name prefix from a Prometheus text page.
func metricValue(t testing.TB, page, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("parsing metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not found in:\n%s", prefix, page)
	return 0
}

func metricsPage(t testing.TB, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// metricsSnapshot parses the full /metrics page into series → value, keyed by
// the complete `name{labels}` form, so tests can diff two scrapes.
func metricsSnapshot(t testing.TB, ts *httptest.Server) map[string]float64 {
	t.Helper()
	snap := make(map[string]float64)
	for _, line := range strings.Split(metricsPage(t, ts), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("parsing metric line %q: %v", line, err)
		}
		snap[line[:i]] = v
	}
	return snap
}

// assertCountersMonotonic enforces the Prometheus counter contract between
// two snapshots of the same server: every *_total series present in the
// earlier scrape must still exist and must not have decreased — generation
// swaps may not reset cumulative series.
func assertCountersMonotonic(t testing.TB, before, after map[string]float64) {
	t.Helper()
	for series, b := range before {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		a, ok := after[series]
		if !ok {
			t.Errorf("counter %s disappeared between scrapes", series)
			continue
		}
		if a < b {
			t.Errorf("counter %s moved backwards: %v -> %v", series, b, a)
		}
	}
}

func TestMetricsPage(t *testing.T) {
	_, ts := testServer(t, Options{})
	decodeResp[Decision](t, postJSON(t, ts.URL+"/v1/select", shapeRequest{M: 49, K: 960, N: 160}))

	page := metricsPage(t, ts)
	if got := metricValue(t, page, `selectd_requests_total{endpoint="select",code="200"}`); got != 1 {
		t.Errorf("select 200 count %v, want 1", got)
	}
	if got := metricValue(t, page, `selectd_request_seconds_count{endpoint="select"}`); got != 1 {
		t.Errorf("latency observation count %v, want 1", got)
	}
	if got := metricValue(t, page, `selectd_request_seconds_bucket{endpoint="select",le="+Inf"}`); got != 1 {
		t.Errorf("+Inf bucket %v, want 1", got)
	}
	// Histogram buckets must be cumulative (non-decreasing).
	re := regexp.MustCompile(`selectd_request_seconds_bucket\{endpoint="select",le="[^"]+"\} (\d+)`)
	last := -1.0
	for _, m := range re.FindAllStringSubmatch(page, -1) {
		v, _ := strconv.ParseFloat(m[1], 64)
		if v < last {
			t.Fatalf("histogram buckets not cumulative:\n%s", page)
		}
		last = v
	}
	if !strings.Contains(page, `selectd_info{selector="DecisionTree",device="amd-r9-nano"}`) {
		t.Error("selector/device labels missing from selectd_info")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	srv, ts := testServer(t, Options{})
	shapes := []batchShape{
		{M: 784, K: 1152, N: 256}, {M: 1, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64},
	}
	resp := postJSON(t, ts.URL+"/v1/select/batch", batchRequest{Shapes: shapes})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b := decodeResp[batchResponse](t, resp)
	if len(b.Results) != len(shapes) {
		t.Fatalf("%d results for %d shapes", len(b.Results), len(shapes))
	}
	for i, d := range b.Results {
		s := gemm.Shape{M: shapes[i].M, K: shapes[i].K, N: shapes[i].N}
		if want := srv.Library().Choose(s); d.Config != want.String() {
			t.Errorf("shape %v: online %s, offline %s", s, d.Config, want)
		}
	}
}

// TestBatchAgreesWithOfflineOnDataset is the acceptance check: the served
// decisions for every shape of the paper's 170-shape dataset must match the
// offline selection path exactly, over the full 640-configuration space.
func TestBatchAgreesWithOfflineOnDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("full-dataset pricing in -short mode")
	}
	model := sim.New(device.R9Nano())
	shapes, _ := workload.DatasetShapes()
	ds := dataset.Build(model, shapes, gemm.AllConfigs())
	lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 8, 42)
	srv := New(lib, model, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := make([]batchShape, len(shapes))
	for i, s := range shapes {
		reqs[i] = batchShape{M: s.M, K: s.K, N: s.N}
	}
	resp := postJSON(t, ts.URL+"/v1/select/batch", batchRequest{Shapes: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b := decodeResp[batchResponse](t, resp)
	if len(b.Results) != len(shapes) {
		t.Fatalf("%d results for %d shapes", len(b.Results), len(shapes))
	}
	for i, d := range b.Results {
		offline := lib.Choose(shapes[i])
		if d.Config != offline.String() {
			t.Errorf("shape %v: online %s, offline %s", shapes[i], d.Config, offline)
		}
		if d.Index != lib.ChooseIndex(shapes[i]) {
			t.Errorf("shape %v: online index %d, offline %d", shapes[i], d.Index, lib.ChooseIndex(shapes[i]))
		}
	}
	if len(shapes) != 170 {
		t.Logf("note: dataset regenerated %d shapes (paper reports 170)", len(shapes))
	}
}

// TestConcurrentTrafficConsistency hammers select concurrently and checks
// every response agrees with the offline path — the race detector covers the
// closed-loop accounting and metrics under this load.
func TestConcurrentTrafficConsistency(t *testing.T) {
	srv, ts := testServer(t, Options{})
	probe := []gemm.Shape{
		{M: 784, K: 1152, N: 256}, {M: 1, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64},
		{M: 49, K: 960, N: 160}, {M: 196, K: 384, N: 64}, {M: 12544, K: 16, N: 96},
		{M: 100352, K: 3, N: 64}, {M: 196, K: 512, N: 512}, {M: 3136, K: 32, N: 192},
		{M: 784, K: 24, N: 144}, {M: 49, K: 320, N: 1280}, {M: 16, K: 4096, N: 1000},
	}
	want := make(map[gemm.Shape]string, len(probe))
	for _, s := range probe {
		want[s] = srv.Library().Choose(s).String()
	}

	// The goroutines avoid the t.Fatal-based helpers: failures flow back on
	// the channel instead.
	query := func(s gemm.Shape) (Decision, error) {
		raw, err := json.Marshal(shapeRequest{M: s.M, K: s.K, N: s.N})
		if err != nil {
			return Decision{}, err
		}
		resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader(raw))
		if err != nil {
			return Decision{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return Decision{}, fmt.Errorf("status %d", resp.StatusCode)
		}
		var d Decision
		err = json.NewDecoder(resp.Body).Decode(&d)
		return d, err
	}

	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < 30; i++ {
				s := probe[(g+i)%len(probe)]
				d, err := query(s)
				if err != nil {
					errs <- err
					return
				}
				if d.Config != want[s] {
					errs <- fmt.Errorf("shape %v: got %s, want %s", s, d.Config, want[s])
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
