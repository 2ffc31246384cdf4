package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
)

// Replica is the router's client for one selectd process. The zero client is
// not usable; construct with NewReplica.
type Replica struct {
	Name string
	URL  string // base URL, e.g. http://127.0.0.1:8081
	hc   *http.Client
}

// NewReplica wires a replica client. client may be nil for a default with a
// per-request timeout left to contexts. The default transport keeps a deep
// idle pool: a router fans hundreds of concurrent requests into each replica,
// and net/http's stock two idle connections per host would churn a fresh TCP
// connection for nearly every one of them.
func NewReplica(name, url string, client *http.Client) *Replica {
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 256
		tr.MaxIdleConnsPerHost = 128
		client = &http.Client{Transport: tr}
	}
	return &Replica{Name: name, URL: url, hc: client}
}

// maxPassthroughBody bounds how much of a replica response the router will
// buffer for pass-through; selectd decision and batch bodies are far smaller.
const maxPassthroughBody = 4 << 20

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
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPassthroughBody))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("reading %s response: %w", path, err)
	}
	return resp.StatusCode, resp.Header, b, nil
}

// selectShape is the wire form of POST /v1/select (mirrors serve's private
// shapeRequest).
type selectShape struct {
	M      int    `json:"m"`
	K      int    `json:"k"`
	N      int    `json:"n"`
	Device string `json:"device,omitempty"`
}

// wireBufPool holds request-encoding scratch for the upstream hot paths:
// select and batch bodies are appended with strconv instead of running the
// reflection encoder per proxied request.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// plainJSONString reports whether s encodes as itself under encoding/json
// (printable ASCII, nothing the HTML-safe encoder escapes). Device names
// always qualify; anything exotic falls back to json.Marshal so the wire
// bytes stay identical to the old encoder's.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendSelectBody renders a selectShape byte-identically to json.Marshal
// (field order, omitempty on device).
func appendSelectBody(b []byte, device string, s gemm.Shape) []byte {
	b = append(b, `{"m":`...)
	b = strconv.AppendInt(b, int64(s.M), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(s.K), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(s.N), 10)
	if device != "" {
		b = append(b, `,"device":"`...)
		b = append(b, device...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// Select asks the replica for one decision, passing the replica's response
// through verbatim: (status, headers, raw body). The router forwards 2xx/4xx
// bodies byte-for-byte so clients see exactly what a single selectd would
// serve, and reads Retry-After from the headers to back off a saturated
// replica.
func (r *Replica) Select(ctx context.Context, device string, shape gemm.Shape) (int, http.Header, []byte, error) {
	if !plainJSONString(device) {
		body, err := json.Marshal(selectShape{M: shape.M, K: shape.K, N: shape.N, Device: device})
		if err != nil {
			return 0, nil, nil, err
		}
		return r.roundTrip(ctx, http.MethodPost, "/v1/select", body)
	}
	bp := wireBufPool.Get().(*[]byte)
	body := appendSelectBody((*bp)[:0], device, shape)
	status, hdr, out, err := r.roundTrip(ctx, http.MethodPost, "/v1/select", body)
	*bp = body[:0]
	wireBufPool.Put(bp)
	return status, hdr, out, err
}

// batchWire mirrors serve's batch request/response wire forms.
type batchWire struct {
	Device string        `json:"device,omitempty"`
	Shapes []selectShape `json:"shapes"`
}

type batchResults struct {
	Results []serve.Decision `json:"results"`
}

// statusError is a failed batch call where the transport worked and the
// replica answered with a non-200: it is alive but unwilling (saturated,
// draining) or the request was bad, and body is its verbatim answer. The
// router treats it as backoff pressure or a client error, never as replica
// death.
type statusError struct {
	status int
	body   []byte
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// appendBatchBody renders a batchWire byte-identically to json.Marshal
// (omitempty device first, then shapes).
func appendBatchBody(b []byte, device string, shapes []gemm.Shape) []byte {
	b = append(b, '{')
	if device != "" {
		b = append(b, `"device":"`...)
		b = append(b, device...)
		b = append(b, `",`...)
	}
	b = append(b, `"shapes":[`...)
	for i, s := range shapes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"m":`...)
		b = strconv.AppendInt(b, int64(s.M), 10)
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(s.K), 10)
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(s.N), 10)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// Batch prices a set of shapes on one device in a single round trip,
// returning the decisions in request order. A non-200 reply comes back as a
// *statusError so callers can tell a bad request or saturation from
// transport death.
func (r *Replica) Batch(ctx context.Context, device string, shapes []gemm.Shape) ([]serve.Decision, error) {
	var body []byte
	var bp *[]byte
	if plainJSONString(device) {
		bp = wireBufPool.Get().(*[]byte)
		body = appendBatchBody((*bp)[:0], device, shapes)
	} else {
		req := batchWire{Device: device, Shapes: make([]selectShape, len(shapes))}
		for i, s := range shapes {
			req.Shapes[i] = selectShape{M: s.M, K: s.K, N: s.N}
		}
		var err error
		if body, err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	status, _, b, err := r.roundTrip(ctx, http.MethodPost, "/v1/select/batch", body)
	if bp != nil {
		*bp = body[:0]
		wireBufPool.Put(bp)
	}
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, &statusError{status: status, body: b, msg: fmt.Sprintf("replica %s batch: status %d: %s", r.Name, status, truncate(b, 200))}
	}
	var out batchResults
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("replica %s batch decode: %w", r.Name, err)
	}
	if len(out.Results) != len(shapes) {
		return nil, fmt.Errorf("replica %s batch: %d results for %d shapes", r.Name, len(out.Results), len(shapes))
	}
	return out.Results, nil
}

// healthzWire mirrors serve's healthz body (the subset the router reads).
type healthzWire struct {
	Status   string `json:"status"`
	Backends []struct {
		Device     string `json:"device"`
		Generation uint64 `json:"generation"`
	} `json:"backends"`
}

// Probe health-checks the replica: nil error means it is serving, and the
// returned map carries each device backend's current generation (the gossiped
// view exposes these so operators can spot a replica stuck on an old
// artifact). A draining replica (healthz 503) is an error: it is rotating out
// and must stop receiving shards.
func (r *Replica) Probe(ctx context.Context) (map[string]uint64, error) {
	status, _, b, err := r.roundTrip(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("replica %s healthz: status %d", r.Name, status)
	}
	var hz healthzWire
	if err := json.Unmarshal(b, &hz); err != nil {
		return nil, fmt.Errorf("replica %s healthz decode: %w", r.Name, err)
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

// parseRetryAfter interprets one Retry-After header value. RFC 9110 §10.2.3
// allows delay-seconds (1*DIGIT: no sign, no fraction) and an HTTP-date;
// dates are measured against now. A delay too long for a Duration saturates
// at the largest one instead of wrapping into the past. Zero delays, the
// past, and garbage report ok=false.
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

// retryAfterOrDefault is how long the router backs off a saturated replica:
// the replica's Retry-After header when present and parseable (delta-seconds
// or HTTP-date), else the given default.
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
