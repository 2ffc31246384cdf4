package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

// multiTestServer builds a two-backend server (R9 Nano default, Gen9
// secondary), each with its own sim-priced library over the same shapes.
func multiTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	shapes := []gemm.Shape{
		{M: 1, K: 4096, N: 1000}, {M: 16, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64},
		{M: 784, K: 1152, N: 256}, {M: 196, K: 2304, N: 512}, {M: 12544, K: 27, N: 32},
		{M: 49, K: 960, N: 160}, {M: 3136, K: 32, N: 192}, {M: 100352, K: 3, N: 64},
		{M: 784, K: 24, N: 144}, {M: 196, K: 512, N: 512}, {M: 64, K: 25088, N: 4096},
	}
	configs := gemm.AllConfigs()[:160]
	var backends []Backend
	for _, spec := range []device.Spec{device.R9Nano(), device.IntegratedGen9()} {
		model := sim.New(spec)
		ds := dataset.Build(model, shapes, configs)
		lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 6, 42)
		backends = append(backends, Backend{Device: spec.Name, Lib: lib, Model: model})
	}
	srv, err := NewMulti(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestMultiDeviceRouting(t *testing.T) {
	srv, ts := multiTestServer(t, Options{})
	shape := gemm.Shape{M: 784, K: 1152, N: 256}

	// Explicit routing: each backend answers with its own library's choice
	// and stamps its device name.
	for _, name := range srv.Devices() {
		d := decodeResp[Decision](t, postJSON(t, ts.URL+"/v1/select",
			shapeRequest{M: shape.M, K: shape.K, N: shape.N, Device: name}))
		if d.Device != name {
			t.Errorf("decision for %q stamped %q", name, d.Device)
		}
		want := srv.byName[name].gen.Load().lib.Choose(shape)
		if d.Config != want.String() {
			t.Errorf("%s: online %s, offline %s", name, d.Config, want)
		}
	}

	// No device field: the first backend is the default.
	d := decodeResp[Decision](t, postJSON(t, ts.URL+"/v1/select",
		shapeRequest{M: shape.M, K: shape.K, N: shape.N}))
	if d.Device != srv.Devices()[0] {
		t.Errorf("default route hit %q, want %q", d.Device, srv.Devices()[0])
	}
}

func TestMultiDeviceBatchRouting(t *testing.T) {
	srv, ts := multiTestServer(t, Options{})
	gen9 := srv.Devices()[1]
	resp := postJSON(t, ts.URL+"/v1/select/batch", batchRequest{
		Device: gen9,
		Shapes: []batchShape{{M: 1, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b := decodeResp[batchResponse](t, resp)
	for i, d := range b.Results {
		if d.Device != gen9 {
			t.Errorf("result %d stamped %q, want %q", i, d.Device, gen9)
		}
	}
}

func TestUnknownDeviceRejected(t *testing.T) {
	_, ts := multiTestServer(t, Options{})
	cases := []struct {
		name string
		do   func() *http.Response
	}{
		{"select", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/select", shapeRequest{M: 1, K: 1, N: 1, Device: "tpu-v9"})
		}},
		{"batch", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/select/batch", batchRequest{
				Device: "tpu-v9", Shapes: []batchShape{{M: 1, K: 1, N: 1}},
			})
		}},
		{"configs", func() *http.Response {
			resp, err := http.Get(ts.URL + "/v1/configs?device=tpu-v9")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
	}
	for _, tc := range cases {
		resp := tc.do()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with unknown device: status %d, want 400", tc.name, resp.StatusCode)
		}
		e := decodeResp[errorResponse](t, resp)
		if !strings.Contains(e.Error, "tpu-v9") {
			t.Errorf("%s: error %q does not name the unknown device", tc.name, e.Error)
		}
	}
}

func TestDevicesEndpoint(t *testing.T) {
	srv, ts := multiTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	dr := decodeResp[devicesResponse](t, resp)
	if dr.Default != srv.Devices()[0] {
		t.Errorf("default %q, want %q", dr.Default, srv.Devices()[0])
	}
	if len(dr.Devices) != 2 {
		t.Fatalf("%d devices listed, want 2", len(dr.Devices))
	}
	for i, di := range dr.Devices {
		if di.Name != srv.Devices()[i] {
			t.Errorf("device %d: %q, want %q", i, di.Name, srv.Devices()[i])
		}
		if di.Selector != "DecisionTree" || di.Configs != 6 {
			t.Errorf("device %d: selector %q configs %d", i, di.Selector, di.Configs)
		}
	}
}

func TestConfigsPerDevice(t *testing.T) {
	srv, ts := multiTestServer(t, Options{})
	gen9 := srv.Devices()[1]
	resp, err := http.Get(ts.URL + "/v1/configs?device=" + gen9)
	if err != nil {
		t.Fatal(err)
	}
	c := decodeResp[configsResponse](t, resp)
	if c.Device != gen9 {
		t.Errorf("configs for %q, want %q", c.Device, gen9)
	}
	if c.Configs[0] != srv.byName[gen9].gen.Load().lib.Configs[0].String() {
		t.Errorf("config 0 %q does not match the gen9 library", c.Configs[0])
	}
}

func TestNewMultiValidation(t *testing.T) {
	model := sim.New(device.R9Nano())
	shapes := []gemm.Shape{{M: 8, K: 8, N: 8}, {M: 64, K: 64, N: 64}}
	ds := dataset.Build(model, shapes, gemm.AllConfigs()[:40])
	lib := core.BuildLibrary(ds, core.TopN{}, core.DecisionTreeSelector{}, 4, 42)

	cases := map[string][]Backend{
		"empty":     {},
		"no name":   {{Device: "", Lib: lib, Model: model}},
		"nil lib":   {{Device: "a", Lib: nil, Model: model}},
		"nil model": {{Device: "a", Lib: lib, Model: nil}},
		"duplicate": {{Device: "a", Lib: lib, Model: model}, {Device: "a", Lib: lib, Model: model}},
	}
	for name, bs := range cases {
		if _, err := NewMulti(bs, Options{}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// Bodies over the 8 MiB cap must draw 413 (not 400): the cap is enforced by
// http.MaxBytesReader on the real response writer.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := testServer(t, Options{})
	body := `{"m":1,"k":1,"n":1` + strings.Repeat(" ", 9<<20) + `}`
	resp, err := http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	e := decodeResp[errorResponse](t, resp)
	if !strings.Contains(e.Error, "bytes") {
		t.Errorf("413 error %q does not mention the byte limit", e.Error)
	}
}
