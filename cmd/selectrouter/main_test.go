package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

func TestParseReplicas(t *testing.T) {
	type rep struct{ name, url string }
	cases := []struct {
		name    string
		in      string
		want    []rep
		wantErr string
	}{
		{name: "positional", in: "http://a:1,https://b:2",
			want: []rep{{"replica-0", "http://a:1"}, {"replica-1", "https://b:2"}}},
		{name: "named", in: "east=http://a:1,west=http://b:2",
			want: []rep{{"east", "http://a:1"}, {"west", "http://b:2"}}},
		{name: "mixed keeps positional index", in: "http://a:1,west=http://b:2",
			want: []rep{{"replica-0", "http://a:1"}, {"west", "http://b:2"}}},
		{name: "whitespace", in: "  http://a:1 , west = http://b:2 ,, ",
			want: []rep{{"replica-0", "http://a:1"}, {"west", "http://b:2"}}},
		{name: "trailing slash", in: "http://a:1/,west=http://b:2//",
			want: []rep{{"replica-0", "http://a:1"}, {"west", "http://b:2"}}},
		{name: "query equals stays positional", in: "http://a:1/?x=y",
			want: []rep{{"replica-0", "http://a:1/?x=y"}}},
		{name: "missing scheme", in: "a:1", wantErr: "must start with http://"},
		{name: "named missing scheme", in: "east=a:1", wantErr: "must start with http://"},
		{name: "non-http scheme", in: "ftp://a:1", wantErr: "must start with http://"},
		{name: "duplicate name", in: "east=http://a:1,east=http://b:2", wantErr: `"east" used twice`},
		{name: "named collides with positional", in: "http://a:1,replica-0=http://b:2", wantErr: `"replica-0" used twice`},
		{name: "empty", in: "", wantErr: "-replicas is required"},
		{name: "only separators", in: " , ,", wantErr: "-replicas is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reps, err := parseReplicas(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseReplicas(%q) error %v, want one containing %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseReplicas(%q): %v", tc.in, err)
			}
			if len(reps) != len(tc.want) {
				t.Fatalf("parseReplicas(%q) gave %d replicas, want %d", tc.in, len(reps), len(tc.want))
			}
			for i, w := range tc.want {
				if reps[i].Name != w.name || reps[i].URL != w.url {
					t.Errorf("replica %d = %s %s, want %s %s", i, reps[i].Name, reps[i].URL, w.name, w.url)
				}
			}
		})
	}
}

// The router has no micro-batcher, peer warming or connection pre-warming,
// so their flags must fail loudly rather than be accepted and ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, arg := range []string{"-batch-window=250us", "-warm-top=64", "-warm-conns=8"} {
		var out bytes.Buffer
		err := run(context.Background(), []string{arg, "-replicas", "http://127.0.0.1:1"}, &out)
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

// The router serves a select over one replica, then drains cleanly and stops
// listening once its context is cancelled (the SIGTERM path).
func TestRunServesAndDrains(t *testing.T) {
	model := sim.New(device.R9Nano())
	shapes := []gemm.Shape{
		{M: 1, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64}, {M: 784, K: 1152, N: 256},
		{M: 196, K: 2304, N: 512}, {M: 12544, K: 27, N: 32}, {M: 49, K: 960, N: 160},
	}
	ds := dataset.Build(model, shapes, gemm.AllConfigs()[:120])
	lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 42)
	srv := serve.New(lib, model, serve.Options{})
	defer srv.Close()
	replica := httptest.NewServer(srv.Handler())
	defer replica.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := newLogWatch()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-replicas", replica.URL,
			"-probe-interval", "0", "-n", "4"}, logs)
	}()
	addr := "http://" + logs.await(t, "routing on ")

	resp, err := http.Post(addr+"/v1/select", "application/json", strings.NewReader(`{"m":784,"k":1152,"n":256}`))
	if err != nil {
		t.Fatal(err)
	}
	var d serve.Decision
	err = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("select through the router: status %d, decode error %v", resp.StatusCode, err)
	}
	if d.Degraded || d.Config != lib.Configs[d.Index].String() {
		t.Fatalf("decision %+v is not the replica's full-quality answer", d)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not drain within 15s of cancel")
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("no clean-drain line in the log:\n%s", logs.String())
	}
	if resp, err := http.Post(addr+"/v1/select", "application/json", strings.NewReader(`{"m":1,"k":1,"n":1}`)); err == nil {
		resp.Body.Close()
		t.Error("router still accepting requests after it drained")
	}
}
