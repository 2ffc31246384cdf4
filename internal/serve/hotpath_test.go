package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

// reuseWriter is a ResponseWriter with no per-request allocations of its own,
// so AllocsPerRun isolates the handler's allocations.
type reuseWriter struct {
	h    http.Header
	code int
	buf  []byte
}

func newReuseWriter() *reuseWriter {
	return &reuseWriter{h: make(http.Header, 4), buf: make([]byte, 0, 4096)}
}

func (w *reuseWriter) Header() http.Header  { return w.h }
func (w *reuseWriter) WriteHeader(code int) { w.code = code }
func (w *reuseWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *reuseWriter) reset() {
	w.code = 0
	w.buf = w.buf[:0]
}

// selectRunner drives the instrumented /v1/select handler with a reusable
// request and writer — the serving hot path minus the TCP socket.
type selectRunner struct {
	handler http.HandlerFunc
	w       *reuseWriter
	r       *http.Request
	body    *bytes.Reader
	payload []byte
}

func newSelectRunner(s *Server, payload []byte) *selectRunner {
	br := bytes.NewReader(payload)
	r := httptest.NewRequest(http.MethodPost, "/v1/select", nil)
	r.Body = io.NopCloser(br)
	r.ContentLength = int64(len(payload))
	return &selectRunner{
		handler: s.instrument("select", s.handleSelect),
		w:       newReuseWriter(),
		r:       r,
		body:    br,
		payload: payload,
	}
}

func (sr *selectRunner) run() {
	sr.body.Reset(sr.payload)
	sr.w.reset()
	sr.handler(sr.w, sr.r)
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestSelectAllocations pins the decision path's allocations: a /v1/select
// request allocates nothing in the handler, whether its shape was asked
// before (repeated) or never (fresh), with the closed loop off and with every
// decision sampled for regret and appended to the drift window.
// Decide allocates no more than the decision's shape string costs. A
// regression is a performance bug even though no behaviour changes, so it
// fails the build.
func TestSelectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own (sync.Pool drops, instrumentation)")
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"baseline", Options{}},
		{"closed-loop-sampled", Options{
			RegretSample:   1,
			RegretUniverse: gemm.AllConfigs()[:120],
			WindowSize:     4096,
		}},
	}
	shape := gemm.Shape{M: 784, K: 1152, N: 256}
	shapeString := testing.AllocsPerRun(100, func() { _ = shape.String() })
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := sim.New(device.R9Nano())
			srv := New(buildLib(t, model, 6), model, tc.opts)
			defer srv.Close()

			t.Run("repeated", func(t *testing.T) {
				sr := newSelectRunner(srv, []byte(`{"m":784,"k":1152,"n":256}`))
				sr.run()
				if sr.w.code != http.StatusOK {
					t.Fatalf("select: status %d, body %s", sr.w.code, sr.w.buf)
				}
				if allocs := testing.AllocsPerRun(500, sr.run); allocs != 0 {
					t.Errorf("select on a repeated shape allocates %.1f objects per request, want 0", allocs)
				}
				decide := func() {
					if d, err := srv.Decide("", shape); err != nil {
						t.Fatalf("Decide: %+v, %v", d, err)
					}
				}
				if allocs := testing.AllocsPerRun(200, decide); allocs > shapeString {
					t.Errorf("Decide on a repeated shape allocates %.1f objects, want <= %.1f (the shape string)", allocs, shapeString)
				}
			})

			t.Run("fresh", func(t *testing.T) {
				// The handler reads the payload afresh each run; rewriting m's
				// six digits in place makes every request a shape never asked
				// before.
				payload := []byte(`{"m":200000,"k":64,"n":64}`)
				sr := newSelectRunner(srv, payload)
				m := 200000
				selectFresh := func() {
					m++
					strconv.AppendInt(payload[5:5], int64(m), 10)
					sr.run()
					if sr.w.code != http.StatusOK {
						t.Fatalf("select on a fresh shape: status %d, body %s", sr.w.code, sr.w.buf)
					}
				}
				if allocs := testing.AllocsPerRun(500, selectFresh); allocs != 0 {
					t.Errorf("select on a fresh shape allocates %.1f objects per request, want 0", allocs)
				}
				decide := func() {
					m++
					if d, err := srv.Decide("", gemm.Shape{M: m, K: 64, N: 64}); err != nil {
						t.Fatalf("Decide: %+v, %v", d, err)
					}
				}
				if allocs := testing.AllocsPerRun(200, decide); allocs > shapeString {
					t.Errorf("Decide on a fresh shape allocates %.1f objects, want <= %.1f (the shape string)", allocs, shapeString)
				}
			})
		})
	}
}

// TestCompiledGenerationMatchesLibrary is the serving half of the
// byte-identical guarantee: on all three paper devices the generation
// installs a compiled chooser, and its decisions match lib.ChooseIndex for
// every dataset shape — before and after a reload.
func TestCompiledGenerationMatchesLibrary(t *testing.T) {
	shapes, _ := workload.DatasetShapes()
	for _, dev := range []func() device.Spec{
		device.R9Nano, device.IntegratedGen9, device.EmbeddedMaliG72,
	} {
		model := sim.New(dev())
		ds := dataset.Build(model, shapes, gemm.AllConfigs()[:120])
		libA := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 6, 42)
		libB := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 43)
		srv := New(libA, model, Options{})

		check := func(lib *core.Library) {
			t.Helper()
			gen := srv.backends[0].gen.Load()
			if !gen.compiled {
				t.Fatalf("%s gen %d: selector did not compile", model.Dev.Name, gen.id)
			}
			for _, sh := range shapes {
				if got, want := gen.choose(sh), lib.ChooseIndex(sh); got != want {
					t.Fatalf("%s shape %v: compiled %d, library %d", model.Dev.Name, sh, got, want)
				}
			}
		}
		check(libA)
		if _, err := srv.Reload("", libB, nil); err != nil {
			t.Fatal(err)
		}
		check(libB)
	}
}

// TestFastParseHandlerParity replays the same requests through the fast
// scanner and the strict decoder path (by prefixing whitespace the scanner
// handles but formatting json.Encoder never emits, both must parse) and
// checks the responses agree with the stdlib-decoded form.
func TestFastParseHandlerParity(t *testing.T) {
	model := sim.New(device.R9Nano())
	srv := New(buildLib(t, model, 6), model, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	// Same logical request in forms that exercise the fast path, the
	// whitespace-tolerant fast path, and stdlib fallbacks; all answers must
	// be identical. The first request warms the cache, the second is the
	// cached reference body the variants must reproduce.
	if code, body := post(`{"m":196,"k":512,"n":512}`); code != http.StatusOK {
		t.Fatalf("warm request: %d %s", code, body)
	}
	code0, body0 := post(`{"m":196,"k":512,"n":512}`)
	if code0 != http.StatusOK {
		t.Fatalf("canonical request: %d %s", code0, body0)
	}
	for _, variant := range []string{
		"  {\n\t\"n\": 512 , \"m\" : 196, \"k\": 512 }  ",
		`{"device":"` + model.Dev.Name + `","m":196,"k":512,"n":512}`,
		`{"n":512,"k":512,"m":196,"m":196}`, // duplicate key, last wins (stdlib semantics)
	} {
		if code, body := post(variant); code != http.StatusOK || body != body0 {
			t.Errorf("variant %q: status %d body %q, want %q", variant, code, body, body0)
		}
	}

	// Error parity: the fast scanner must punt these to the strict decoder,
	// which rejects them exactly as before.
	for _, bad := range []struct {
		body string
		code int
	}{
		{`{"m":196,"k":512,"n":512} trailing`, http.StatusBadRequest},
		{`{"m":196,"k":512,"n":512,"extra":1}`, http.StatusBadRequest},
		{`{"m":196.5,"k":512,"n":512}`, http.StatusBadRequest},
		{`{"m":0,"k":512,"n":512}`, http.StatusBadRequest},
		{``, http.StatusBadRequest},
		{`{"m":196,"k":512,"n":512,"device":"nope"}`, http.StatusBadRequest},
	} {
		if code, body := post(bad.body); code != bad.code {
			t.Errorf("body %q: status %d (%s), want %d", bad.body, code, body, bad.code)
		}
	}
}

func BenchmarkSelectHot(b *testing.B) {
	model := sim.New(device.R9Nano())
	srv := New(buildLib(b, model, 6), model, Options{})
	sr := newSelectRunner(srv, []byte(`{"m":784,"k":1152,"n":256}`))
	sr.run()
	if sr.w.code != http.StatusOK {
		b.Fatalf("select failed: %d", sr.w.code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.run()
	}
}

func BenchmarkSelectHotParallel(b *testing.B) {
	model := sim.New(device.R9Nano())
	srv := New(buildLib(b, model, 6), model, Options{})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		sr := newSelectRunner(srv, []byte(`{"m":784,"k":1152,"n":256}`))
		for pb.Next() {
			sr.run()
		}
	})
}

// BenchmarkChoose is what one select pays for its decision on each selector
// selectd accepts, now that no cache stands in front of it: the serving
// generation's chooser over the paper's dataset shapes, on a library trained
// exactly as selectd trains one in-process (decision-tree pruning, n=8,
// seed 42). Each sub-benchmark's name says whether the generation installed
// the compiled chooser or fell back to the interpreted selector.
func BenchmarkChoose(b *testing.B) {
	model := sim.New(device.R9Nano())
	shapes, _ := workload.DatasetShapes()
	ds := dataset.Build(model, shapes, gemm.AllConfigs())
	for _, sel := range []struct {
		name    string
		trainer core.SelectorTrainer
	}{
		{"tree", core.DecisionTreeSelector{}},
		{"forest", core.RandomForestSelector{}},
		{"1nn", core.KNNSelector{K: 1}},
		{"3nn", core.KNNSelector{K: 3}},
		{"linear-svm", core.LinearSVMSelector{}},
		{"radial-svm", core.RadialSVMSelector{}},
	} {
		lib := core.BuildLibrary(ds, core.DecisionTree{}, sel.trainer, 8, 42)
		srv := New(lib, model, Options{})
		gen := srv.backends[0].gen.Load()
		kind := "interpreted"
		if gen.compiled {
			kind = "compiled"
		}
		b.Run(sel.name+"/"+kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chosen = gen.choose(shapes[i%len(shapes)])
			}
		})
		srv.Close()
	}
}

// chosen keeps BenchmarkChoose's result live.
var chosen int
