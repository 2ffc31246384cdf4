package cluster

import (
	"encoding/json"
	"math"
	"math/big"
	"net/http"
	"strings"
	"testing"
	"time"

	"kernelselect/internal/gemm"
)

// TestParseRetryAfter pins RFC 9110 Retry-After semantics: both delay-seconds
// and HTTP-date forms parse, measured against a fixed clock; zero, the past,
// signs and garbage are rejected so the router falls back to its default
// backoff, and a delay too long for a Duration saturates instead of wrapping
// into the past.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
		ok   bool
	}{
		{"delta-seconds", "5", 5 * time.Second, true},
		{"delta-whitespace", "  12  ", 12 * time.Second, true},
		{"delta-large", "3600", time.Hour, true},
		{"delta-zero", "0", 0, false},
		{"delta-negative", "-3", 0, false},
		{"http-date-future", now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second, true},
		{"http-date-far-future", now.Add(2 * time.Minute).Format(http.TimeFormat), 2 * time.Minute, true},
		{"http-date-past", now.Add(-time.Minute).Format(http.TimeFormat), 0, false},
		{"http-date-now", now.Format(http.TimeFormat), 0, false},
		{"rfc850-date", now.Add(45 * time.Second).Format(time.RFC850), 45 * time.Second, true},
		{"ansic-date", now.Add(20 * time.Second).Format(time.ANSIC), 20 * time.Second, true},
		{"empty", "", 0, false},
		{"whitespace-only", "   ", 0, false},
		{"garbage", "soon", 0, false},
		{"trailing-junk", "5 seconds", 0, false},
		{"mixed-digits", "5x", 0, false},
		{"float", "2.5", 0, false},
		{"delta-plus-sign", "+5", 0, false},
		{"delta-minus-zero", "-0", 0, false},
		{"delta-leading-zeros", "007", 7 * time.Second, true},
		{"delta-all-zeros", "000", 0, false},
		{"delta-tabs", "\t5\t", 5 * time.Second, true},
		{"delta-largest-exact", "9223372036", 9223372036 * time.Second, true},
		{"delta-saturates", "9223372037", math.MaxInt64, true},
		{"delta-wraps-at-parse", "10000000000", math.MaxInt64, true},
		{"delta-past-int64", "99999999999999999999", math.MaxInt64, true},
		{"delta-long-then-junk", "99999999999999999999x", 0, false},
		{"delta-fullwidth-digit", "\uff15", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseRetryAfter(tc.v, now)
			if ok != tc.ok || got != tc.want {
				t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.v, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestRetryAfterOrDefault covers the header-level seam: parseable values win,
// anything else yields the default.
func TestRetryAfterOrDefault(t *testing.T) {
	def := 7 * time.Millisecond
	h := http.Header{}
	if got := retryAfterOrDefault(h, def); got != def {
		t.Errorf("missing header: %v, want default %v", got, def)
	}
	h.Set("Retry-After", "2")
	if got := retryAfterOrDefault(h, def); got != 2*time.Second {
		t.Errorf("delta-seconds header: %v, want 2s", got)
	}
	h.Set("Retry-After", time.Now().Add(10*time.Second).UTC().Format(http.TimeFormat))
	if got := retryAfterOrDefault(h, def); got < 8*time.Second || got > 10*time.Second {
		t.Errorf("HTTP-date header: %v, want ~10s", got)
	}
	h.Set("Retry-After", "nonsense")
	if got := retryAfterOrDefault(h, def); got != def {
		t.Errorf("garbage header: %v, want default %v", got, def)
	}
}

// FuzzParseRetryAfter checks parseRetryAfter's contract on arbitrary header
// values, against math/big and net/http rather than its own arithmetic:
//   - an accepted delay is positive;
//   - an all-digit value (after trimming spaces and tabs) parses to its
//     seconds, saturating at the largest Duration;
//   - any other value is accepted only as an HTTP-date, at exactly its
//     distance from now.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for _, v := range []string{
		"5", "  12  ", "0", "-3", "+5", "007", "2.5", "soon", "",
		"9223372036", "9223372037", "10000000000", "99999999999999999999",
		now.Add(30 * time.Second).Format(http.TimeFormat),
		now.Add(45 * time.Second).Format(time.RFC850),
		now.Add(20 * time.Second).Format(time.ANSIC),
		now.Add(-time.Minute).Format(http.TimeFormat),
	} {
		f.Add(v)
	}
	maxDur := new(big.Int).SetInt64(math.MaxInt64)
	f.Fuzz(func(t *testing.T, v string) {
		d, ok := parseRetryAfter(v, now)
		if ok && d <= 0 {
			t.Fatalf("parseRetryAfter(%q) = %v accepted a non-positive delay", v, d)
		}
		trimmed := strings.Trim(v, " \t")
		if trimmed != "" && strings.Trim(trimmed, "0123456789") == "" {
			secs, _ := new(big.Int).SetString(trimmed, 10)
			ns := new(big.Int).Mul(secs, big.NewInt(int64(time.Second)))
			if ns.Cmp(maxDur) > 0 {
				ns = maxDur
			}
			want, wantOK := time.Duration(ns.Int64()), secs.Sign() > 0
			if d != want || ok != wantOK {
				t.Fatalf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", v, d, ok, want, wantOK)
			}
			return
		}
		if !ok {
			return
		}
		at, err := http.ParseTime(trimmed)
		if err != nil {
			t.Fatalf("parseRetryAfter(%q) accepted %v, but the value is neither delay-seconds nor an HTTP-date", v, d)
		}
		if want := at.Sub(now); d != want {
			t.Fatalf("parseRetryAfter(%q) = %v, want the date's distance %v", v, d, want)
		}
	})
}

// The pooled append-encoders must stay byte-identical to encoding/json — the
// replicas parse these bodies with strict decoders, and "fast" must never
// mean "different".
func TestAppendWireBodiesMatchStdlib(t *testing.T) {
	shapes := []gemm.Shape{{M: 784, K: 1152, N: 256}, {M: 1, K: 4096, N: 1000}, {M: 100352, K: 3, N: 64}}
	for _, device := range []string{"", "r9nano", "gfx803-es2"} {
		for _, s := range shapes {
			want, _ := json.Marshal(selectShape{M: s.M, K: s.K, N: s.N, Device: device})
			if got := appendSelectBody(nil, device, s); string(got) != string(want) {
				t.Errorf("appendSelectBody(%q, %v) = %s, want %s", device, s, got, want)
			}
		}
		wire := batchWire{Device: device, Shapes: make([]selectShape, len(shapes))}
		for i, s := range shapes {
			wire.Shapes[i] = selectShape{M: s.M, K: s.K, N: s.N}
		}
		want, _ := json.Marshal(wire)
		if got := appendBatchBody(nil, device, shapes); string(got) != string(want) {
			t.Errorf("appendBatchBody(%q) = %s, want %s", device, got, want)
		}
	}
	if plainJSONString("naïve") || plainJSONString(`quo"te`) || plainJSONString("html<>&") {
		t.Error("plainJSONString admitted a string the HTML-safe encoder would escape")
	}
	if !plainJSONString("r9nano") || !plainJSONString("") {
		t.Error("plainJSONString rejected a plain device name")
	}
}
