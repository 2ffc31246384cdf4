package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/serve"
)

// Replica is the router's client for one selectd process. The zero client is
// not usable; construct with NewReplica.
type Replica struct {
	Name string
	URL  string // base URL, e.g. http://127.0.0.1:8081
	hc   *http.Client
}

// NewReplica wires a replica client. client may be nil for a default whose
// per-request timeouts are left to contexts.
func NewReplica(name, url string, client *http.Client) *Replica {
	if client == nil {
		client = &http.Client{}
	}
	return &Replica{Name: name, URL: url, hc: client}
}

// maxReplyBody bounds how much of a replica response the router will buffer;
// artifacts, health and reload bodies are far smaller.
const maxReplyBody = 64 << 20

// roundTrip issues one request and returns (status, headers, body). Transport
// errors — connection refused, reset mid-body, context deadline — come back
// as err; any HTTP status is a successful round trip from the transport's
// view.
func (r *Replica) roundTrip(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.URL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBody))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("reading %s response: %w", path, err)
	}
	return resp.StatusCode, resp.Header, b, nil
}

// Library pulls the artifact the replica serves for device and the
// generation it serves it under (GET /v1/library). The body is parsed with
// the same non-strict loader selectd -library uses, which accepts unified
// artifacts too.
func (r *Replica) Library(ctx context.Context, device string) (*core.Library, uint64, error) {
	status, hdr, b, err := r.roundTrip(ctx, http.MethodGet, "/v1/library?device="+url.QueryEscape(device), nil)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("replica %s library %s: status %d: %s", r.Name, device, status, truncate(b, 200))
	}
	gen, err := strconv.ParseUint(hdr.Get(serve.GenerationHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("replica %s library %s: generation header: %w", r.Name, device, err)
	}
	lib, err := core.LoadLibraryForDevice(bytes.NewReader(b), device)
	if err != nil {
		return nil, 0, fmt.Errorf("replica %s library %s: %w", r.Name, device, err)
	}
	return lib, gen, nil
}

// healthzWire mirrors serve's healthz body (the subset the router reads).
// Backends come in the replica's route order: the first is its default.
type healthzWire struct {
	Status   string `json:"status"`
	Backends []struct {
		Device     string `json:"device"`
		Generation uint64 `json:"generation"`
	} `json:"backends"`
}

// health reads the replica's /healthz. A draining replica (healthz 503) is an
// error: it is rotating out.
func (r *Replica) health(ctx context.Context) (healthzWire, error) {
	status, _, b, err := r.roundTrip(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return healthzWire{}, err
	}
	if status != http.StatusOK {
		return healthzWire{}, fmt.Errorf("replica %s healthz: status %d", r.Name, status)
	}
	var hz healthzWire
	if err := json.Unmarshal(b, &hz); err != nil {
		return healthzWire{}, fmt.Errorf("replica %s healthz decode: %w", r.Name, err)
	}
	return hz, nil
}

// Probe health-checks the replica: nil error means it is serving, and the
// returned map carries each device backend's current generation. The
// gossiped view exposes these so operators can spot a replica stuck on an
// old artifact, and a router that learns of a newer one pulls it.
func (r *Replica) Probe(ctx context.Context) (map[string]uint64, error) {
	hz, err := r.health(ctx)
	if err != nil {
		return nil, err
	}
	gens := make(map[string]uint64, len(hz.Backends))
	for _, be := range hz.Backends {
		gens[be.Device] = be.Generation
	}
	return gens, nil
}

// reloadWire mirrors serve's reload response (the subset the router reads).
type reloadWire struct {
	Device     string `json:"device"`
	Generation uint64 `json:"generation"`
	Selector   string `json:"selector"`
	Configs    int    `json:"configs"`
}

// Reload asks the replica to swap the named device onto a fresh artifact and
// reports the new generation.
func (r *Replica) Reload(ctx context.Context, device string) (reloadWire, error) {
	body, err := json.Marshal(struct {
		Device string `json:"device,omitempty"`
	}{Device: device})
	if err != nil {
		return reloadWire{}, err
	}
	status, _, b, err := r.roundTrip(ctx, http.MethodPost, "/v1/reload", body)
	if err != nil {
		return reloadWire{}, err
	}
	if status != http.StatusOK {
		return reloadWire{}, fmt.Errorf("replica %s reload: status %d: %s", r.Name, status, truncate(b, 200))
	}
	var rr reloadWire
	if err := json.Unmarshal(b, &rr); err != nil {
		return reloadWire{}, fmt.Errorf("replica %s reload decode: %w", r.Name, err)
	}
	return rr, nil
}

// parseRetryAfter interprets one Retry-After header value, the hint a replica
// sends with a transient 503 (selectd stamps one on its draining /healthz).
// RFC 9110 §10.2.3 allows delay-seconds (1*DIGIT: no sign, no fraction) and
// an HTTP-date; dates are measured against now. A delay too long for a
// Duration saturates at the largest one instead of wrapping into the past.
// Zero delays, the past, and garbage report ok=false.
//
// Nothing calls it: the router answers selects from its pulled artifact and
// probes on its own cadence. It stays, with its tests, until a later change
// retires both (ROADMAP item 2).
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.Trim(v, " \t")
	if v == "" {
		return 0, false
	}
	if strings.Trim(v, "0123456789") == "" {
		// All digits, so only overflow can fail, and it returns MaxInt64.
		secs, _ := strconv.ParseInt(v, 10, 64)
		if secs == 0 {
			return 0, false
		}
		if secs > math.MaxInt64/int64(time.Second) {
			return math.MaxInt64, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// retryAfterOrDefault is how long a replica asks to be left alone: its
// Retry-After header when present and parseable (delta-seconds or
// HTTP-date), else the given default.
func retryAfterOrDefault(h http.Header, def time.Duration) time.Duration {
	if d, ok := parseRetryAfter(h.Get("Retry-After"), time.Now()); ok {
		return d
	}
	return def
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
