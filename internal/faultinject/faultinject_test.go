package faultinject

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// okHandler answers every request 200 with a fixed body.
var okHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.Write([]byte("ok"))
})

// serve sends one request through h and returns the recorded response.
func serve(h http.Handler, r *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func callPattern(seed uint64, opts Options, n int) []bool {
	h := New(seed, opts).Middleware(okHandler)
	pattern := make([]bool, n)
	for i := range pattern {
		rec := serve(h, httptest.NewRequest(http.MethodPost, "/v1/select", nil))
		pattern[i] = rec.Code != http.StatusOK
	}
	return pattern
}

// The fault schedule must be a pure function of the seed: two sequential
// runs agree request-for-request, and a different seed produces a different
// schedule.
func TestDeterministicSchedule(t *testing.T) {
	opts := Options{Error: 0.3}
	a := callPattern(7, opts, 200)
	b := callPattern(7, opts, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
	c := callPattern(8, opts, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 200-request schedule")
	}
}

// An injected error is a 503 with Retry-After that never reaches the
// handler; every other request passes through untouched.
func TestErrorRateAndStats(t *testing.T) {
	in := New(42, Options{Error: 0.25})
	reached := 0
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached++
		okHandler(w, r)
	}))
	const n = 2000
	fails := 0
	for i := 0; i < n; i++ {
		rec := serve(h, httptest.NewRequest(http.MethodPost, "/v1/select", nil))
		switch rec.Code {
		case http.StatusServiceUnavailable:
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("injected 503 carries no Retry-After")
			}
			fails++
		case http.StatusOK:
			if rec.Body.String() != "ok" {
				t.Fatalf("passthrough body %q, want ok", rec.Body)
			}
		default:
			t.Fatalf("unexpected status %d", rec.Code)
		}
	}
	if reached != n-fails {
		t.Fatalf("handler ran %d times for %d passthrough requests", reached, n-fails)
	}
	if got := in.Stats().Errors; got != uint64(fails) {
		t.Fatalf("stats count %d, observed %d failures", got, fails)
	}
	rate := float64(fails) / n
	if rate < 0.18 || rate > 0.32 {
		t.Fatalf("error rate %.3f far from configured 0.25", rate)
	}
}

func TestZeroOptionsInjectNothing(t *testing.T) {
	in := New(1, Options{})
	h := in.Middleware(okHandler)
	for i := 0; i < 500; i++ {
		if rec := serve(h, httptest.NewRequest(http.MethodPost, "/v1/select", nil)); rec.Code != http.StatusOK {
			t.Fatalf("zero-probability injector failed request %d: status %d", i, rec.Code)
		}
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("stats %+v, want all zero", s)
	}
}

// FailRetrain draws from its own deterministic stream: same seed, same
// schedule; the hit rate tracks the configured probability and the stats
// counter matches the observed failures.
func TestFailRetrainDeterministicAndCounted(t *testing.T) {
	pattern := func(seed uint64) []bool {
		in := New(seed, Options{RetrainError: 0.3})
		out := make([]bool, 300)
		for i := range out {
			out[i] = in.FailRetrain()
		}
		return out
	}
	a, b := pattern(11), pattern(11)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at poll %d", i)
		}
		if a[i] {
			fails++
		}
	}
	rate := float64(fails) / float64(len(a))
	if rate < 0.2 || rate > 0.4 {
		t.Fatalf("retrain failure rate %.3f far from configured 0.3", rate)
	}
	in := New(11, Options{RetrainError: 0.3})
	for range a {
		in.FailRetrain()
	}
	if got := in.Stats().RetrainFails; got != uint64(fails) {
		t.Fatalf("stats count %d, observed %d failures", got, fails)
	}

	zero := New(11, Options{})
	for i := 0; i < 200; i++ {
		if zero.FailRetrain() {
			t.Fatal("zero-probability injector failed a retrain")
		}
	}
}

// A spike must yield to an already-dead context instead of sleeping it out.
func TestSpikeRespectsContext(t *testing.T) {
	in := New(3, Options{Spike: 1, SpikeMax: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rec := serve(in.Middleware(okHandler), httptest.NewRequest(http.MethodPost, "/v1/select", nil).WithContext(ctx))
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("spike ignored dead context for %v", elapsed)
	}
	if rec.Code != http.StatusOK || in.Stats().Spikes != 1 {
		t.Fatalf("status %d, spikes %d; want the request passed on after its spike", rec.Code, in.Stats().Spikes)
	}
}

// Middleware with Cancel=1 must hand every request a context that dies
// within CancelMax.
func TestMiddlewareCancels(t *testing.T) {
	in := New(5, Options{Cancel: 1, CancelMax: time.Millisecond})
	saw := make(chan error, 1)
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			saw <- r.Context().Err()
		case <-time.After(2 * time.Second):
			saw <- nil
		}
	}))
	req := httptest.NewRequest(http.MethodPost, "/v1/select", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if err := <-saw; err == nil {
		t.Fatal("request context never cancelled")
	}
	if in.Stats().Cancels != 1 {
		t.Fatalf("cancel count %d, want 1", in.Stats().Cancels)
	}
}

// A killed Outage severs connections at the transport — the client sees a
// broken round trip, not an HTTP status — and Restore brings clean service
// back on the same listener.
func TestOutageSeversAndRestores(t *testing.T) {
	o := NewOutage()
	ts := httptest.NewServer(o.Middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})))
	defer ts.Close()

	get := func() (*http.Response, error) {
		// A fresh client per call: severed connections must not be reused.
		c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		return c.Get(ts.URL)
	}

	if resp, err := get(); err != nil {
		t.Fatalf("healthy request failed: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy status %d", resp.StatusCode)
		}
	}

	o.Kill()
	if !o.Down() {
		t.Fatal("Kill did not mark the outage down")
	}
	if resp, err := get(); err == nil {
		resp.Body.Close()
		t.Fatalf("severed request got an HTTP response: %d", resp.StatusCode)
	}
	if o.Kills() != 1 || o.Severed() == 0 {
		t.Fatalf("kills=%d severed=%d after one kill and one severed request", o.Kills(), o.Severed())
	}
	o.Kill() // idempotent: still one kill transition
	if o.Kills() != 1 {
		t.Fatalf("repeated Kill counted twice: %d", o.Kills())
	}

	o.Restore()
	if resp, err := get(); err != nil {
		t.Fatalf("restored request failed: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restored status %d", resp.StatusCode)
		}
	}
}

func TestMiddlewarePassthrough(t *testing.T) {
	in := New(5, Options{})
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Context().Err() != nil {
			t.Error("passthrough request arrived cancelled")
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("status %d", rec.Code)
	}
}
