package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// reuseWriter is a ResponseWriter with no per-request allocations of its own,
// so AllocsPerRun isolates the router handler's allocations (mirrors serve's
// hot-path harness — the two packages pin the same guarantee on their own
// tiers).
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

// routerRunner drives the router's /v1/select handler with a reusable request
// and writer — the proxy hot path minus the TCP socket.
type routerRunner struct {
	handler http.HandlerFunc
	w       *reuseWriter
	r       *http.Request
	body    *bytes.Reader
	payload []byte
}

func newRouterRunner(r *Router, payload []byte) *routerRunner {
	br := bytes.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, "/v1/select", nil)
	req.Body = io.NopCloser(br)
	req.ContentLength = int64(len(payload))
	return &routerRunner{
		handler: r.handleSelect,
		w:       newReuseWriter(),
		r:       req,
		body:    br,
		payload: payload,
	}
}

func (rr *routerRunner) run() {
	rr.body.Reset(rr.payload)
	rr.w.reset()
	rr.handler(rr.w, rr.r)
}

// hotPayload is a fleetShapes member in canonical wire form, so the fast
// scanner handles it and the edge cache key is exercised end to end.
var hotPayload = []byte(`{"m":784,"k":1152,"n":256}`)

// TestRouterCacheHitAllocations pins the tentpole guarantee at the router
// tier: once a (device, shape) is cached at the edge, a /v1/select repeat is
// answered without touching the heap — body read, fast parse, cache lookup,
// pre-rendered write, metrics, all allocation-free. A regression here is a
// performance bug even though no behaviour changes, so it fails the build.
func TestRouterCacheHitAllocations(t *testing.T) {
	f := newTestFleet(t, 1, Options{HedgeDelay: -1, EdgeCacheSize: 1024}, nil)
	rr := newRouterRunner(f.router, hotPayload)

	rr.run() // miss: routed upstream, fills the edge cache
	if rr.w.code != http.StatusOK {
		t.Fatalf("warm request: status %d, body %s", rr.w.code, rr.w.buf)
	}
	warmBody := append([]byte(nil), rr.w.buf...)
	rr.run()
	if rr.w.code != http.StatusOK || !bytes.Equal(rr.w.buf, warmBody) {
		t.Fatalf("second request not the cached body: status %d, %q vs %q", rr.w.code, rr.w.buf, warmBody)
	}
	if hits := f.router.metrics.edgeHits.Load(); hits == 0 {
		t.Fatal("second request did not count as an edge hit")
	}
	if allocs := testing.AllocsPerRun(500, rr.run); allocs != 0 {
		t.Errorf("cache-hit select allocates %.1f objects per request, want 0", allocs)
	}
}

func BenchmarkRouterCacheHit(b *testing.B) {
	f := newTestFleet(b, 1, Options{HedgeDelay: -1, EdgeCacheSize: 1024}, nil)
	rr := newRouterRunner(f.router, hotPayload)
	rr.run() // warm the edge cache
	if rr.w.code != http.StatusOK {
		b.Fatalf("warm request failed: %d", rr.w.code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr.run()
	}
}
