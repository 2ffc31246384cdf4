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
// hot-path harness).
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

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// routerRunner drives the router's full handler with a reusable /v1/select
// request and writer — the select path minus the TCP socket.
type routerRunner struct {
	handler http.Handler
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
		handler: r.Handler(),
		w:       newReuseWriter(),
		r:       req,
		body:    br,
		payload: payload,
	}
}

func (rr *routerRunner) run() {
	rr.body.Reset(rr.payload)
	rr.w.reset()
	rr.handler.ServeHTTP(rr.w, rr.r)
}

// TestRouterSelectAllocations pins the router's select path at zero heap
// allocations: mux dispatch, body read, fast parse, the compiled selector
// over the pulled artifact, append encoding and metrics. It answers exactly
// what a replica answers. A regression here is a performance bug even though
// no behaviour changes, so it fails the build.
func TestRouterSelectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	f := newTestFleet(t, 1, Options{}, nil)
	payload := []byte(`{"m":784,"k":1152,"n":256}`)
	rr := newRouterRunner(f.router, payload)
	rr.run()
	status, want := postRaw(t, f.reps[0].URL+"/v1/select", string(payload))
	if rr.w.code != http.StatusOK || status != http.StatusOK || !bytes.Equal(rr.w.buf, want) {
		t.Fatalf("router answers %d %s, replica %d %s", rr.w.code, rr.w.buf, status, want)
	}
	if allocs := testing.AllocsPerRun(500, rr.run); allocs != 0 {
		t.Errorf("router select allocates %.1f objects per request, want 0", allocs)
	}
}
