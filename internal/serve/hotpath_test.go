package serve

import (
	"bytes"
	"context"
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

// TestSelectCacheHitAllocations pins the tentpole guarantee: a steady-state
// /v1/select request — well-formed body, cached shape — does not allocate in
// the handler at all. A regression here is a performance bug even though no
// behaviour changes, so it fails the build. The closed-loop variant runs with
// every decision sampled for regret measurement and appended to the drift
// window: the accounting path must stay allocation-free too.
func TestSelectCacheHitAllocations(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"baseline", Options{FallbackShapes: reloadShapes}},
		{"closed-loop-sampled", Options{
			FallbackShapes: reloadShapes,
			RegretSample:   1,
			RegretUniverse: gemm.AllConfigs()[:120],
			WindowSize:     4096,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := sim.New(device.R9Nano())
			srv := New(buildLib(t, model, 6), model, tc.opts)
			defer srv.Close()
			payload := []byte(`{"m":784,"k":1152,"n":256}`)
			sr := newSelectRunner(srv, payload)

			sr.run() // miss: price and fill the cache
			if sr.w.code != http.StatusOK {
				t.Fatalf("warm request: status %d, body %s", sr.w.code, sr.w.buf)
			}
			sr.run()
			if !bytes.Contains(sr.w.buf, []byte(`"cached":true`)) {
				t.Fatalf("second request not served from cache: %s", sr.w.buf)
			}
			if allocs := testing.AllocsPerRun(500, sr.run); allocs != 0 {
				t.Errorf("cache-hit select allocates %.1f objects per request, want 0", allocs)
			}
		})
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestSelectMissAllocations pins the one cache-miss path's allocations under
// the analytical pricer: every run asks for a shape no run asked before,
// through Engine.Decide and through the /v1/select handler. A miss allocates
// the decision's strings, the cache entry, and (on the HTTP path) the
// request deadline; anything more is new per-miss machinery.
func TestSelectMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own (sync.Pool drops, instrumentation)")
	}
	const (
		decideMax  = 6
		handlerMax = 11
	)
	model := sim.New(device.R9Nano())
	srv := New(buildLib(t, model, 6), model, Options{FallbackShapes: reloadShapes})
	defer srv.Close()

	ctx := context.Background()
	m := 100000
	decide := func() {
		m++
		d, err := srv.Decide(ctx, "", gemm.Shape{M: m, K: 64, N: 64})
		if err != nil || d.Cached || d.Degraded {
			t.Fatalf("Decide miss: %+v, %v", d, err)
		}
	}
	if allocs := testing.AllocsPerRun(200, decide); allocs > decideMax {
		t.Errorf("Decide miss allocates %.0f objects, want <= %d", allocs, decideMax)
	}

	// The handler reads the payload afresh each run; rewriting m's six
	// digits in place makes every request a new shape.
	payload := []byte(`{"m":200000,"k":64,"n":64}`)
	sr := newSelectRunner(srv, payload)
	m = 200000
	selectMiss := func() {
		m++
		strconv.AppendInt(payload[5:5], int64(m), 10)
		sr.run()
		if sr.w.code != http.StatusOK || !bytes.Contains(sr.w.buf, []byte(`"cached":false`)) {
			t.Fatalf("select miss: status %d, body %s", sr.w.code, sr.w.buf)
		}
	}
	if allocs := testing.AllocsPerRun(200, selectMiss); allocs > handlerMax {
		t.Errorf("select miss allocates %.0f objects per request, want <= %d", allocs, handlerMax)
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
		srv := New(libA, model, Options{FallbackShapes: shapes})

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
	srv := New(buildLib(t, model, 6), model, Options{FallbackShapes: reloadShapes})
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
	srv := New(buildLib(b, model, 6), model, Options{FallbackShapes: reloadShapes})
	sr := newSelectRunner(srv, []byte(`{"m":784,"k":1152,"n":256}`))
	sr.run() // warm the cache
	if sr.w.code != http.StatusOK {
		b.Fatalf("warm request failed: %d", sr.w.code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.run()
	}
}

func BenchmarkSelectHotParallel(b *testing.B) {
	model := sim.New(device.R9Nano())
	srv := New(buildLib(b, model, 6), model, Options{FallbackShapes: reloadShapes})
	warm := newSelectRunner(srv, []byte(`{"m":784,"k":1152,"n":256}`))
	warm.run()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		sr := newSelectRunner(srv, []byte(`{"m":784,"k":1152,"n":256}`))
		for pb.Next() {
			sr.run()
		}
	})
}
