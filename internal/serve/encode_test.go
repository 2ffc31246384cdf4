package serve

import (
	"encoding/json"
	"math"
	"testing"

	"kernelselect/internal/gemm"
)

// TestAppendDecisionMatchesStdlib pins the append encoders to encoding/json
// byte for byte — field order, omitempty, string escaping — so swapping the
// encoder can never change what clients parse. appendSelection, which renders
// the shape from its integers, must match too.
func TestAppendDecisionMatchesStdlib(t *testing.T) {
	cases := []struct {
		d     Decision
		shape gemm.Shape
	}{
		{Decision{}, gemm.Shape{}},
		{Decision{
			Device: "amd-r9-nano", Config: "t8x8a4_wg16x16",
			Index: 3, KernelID: "t8x8a4", Generation: math.MaxUint64,
		}, gemm.Shape{M: 784, K: 1152, N: 256}},
		{Decision{
			Device: "intel-gen9", Config: "c", Index: 0,
			KernelID: "k", Generation: 1,
		}, gemm.Shape{M: 1, K: 1, N: 1}},
		{Decision{Device: `quo"te\dev`, Config: "ünïcode", KernelID: "<&>"}, gemm.Shape{M: 100352, K: 3, N: 64}},
	}
	for _, tc := range cases {
		d := tc.d
		d.Shape = tc.shape.String()
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendDecision(nil, &d); string(got) != string(want) {
			t.Errorf("decision %+v:\n append: %s\n stdlib: %s", d, got, want)
		}
		if got := appendSelection(nil, &tc.d, tc.shape); string(got) != string(want) {
			t.Errorf("selection %+v of %v:\n append: %s\n stdlib: %s", tc.d, tc.shape, got, want)
		}
	}
	odd := Decision{Shape: "<&>"}
	if want, _ := json.Marshal(odd); string(appendDecision(nil, &odd)) != string(want) {
		t.Errorf("shape needing escapes: append %s, stdlib %s", appendDecision(nil, &odd), want)
	}
}

// TestParseSelectBody checks the fast scanner accepts exactly the canonical
// forms (agreeing with the strict decoder on values) and punts everything
// doubtful, so stdlib semantics govern every edge case.
func TestParseSelectBody(t *testing.T) {
	accept := []struct {
		body    string
		m, k, n int
		device  string
	}{
		{`{"m":1,"k":2,"n":3}`, 1, 2, 3, ""},
		{`{"n":3,"m":1,"k":2}`, 1, 2, 3, ""},
		{` { "m" : 10 , "k" : 20 , "n" : 30 } `, 10, 20, 30, ""},
		{`{"m":1,"k":2,"n":3,"device":"gpu-a"}`, 1, 2, 3, "gpu-a"},
		{`{"device":"x","m":-5,"k":2,"n":3}`, -5, 2, 3, "x"},
		{`{"m":1,"k":2,"n":3,"m":9}`, 9, 2, 3, ""}, // duplicate: last wins, as stdlib
		{`{}`, 0, 0, 0, ""},
	}
	for _, c := range accept {
		p, ok := parseSelectBody([]byte(c.body))
		if !ok {
			t.Errorf("body %q: fast parser punted, want accept", c.body)
			continue
		}
		if p.m != c.m || p.k != c.k || p.n != c.n || string(p.device) != c.device {
			t.Errorf("body %q: parsed m=%d k=%d n=%d device=%q", c.body, p.m, p.k, p.n, p.device)
		}
		// Cross-check against the strict decoder on accepted bodies.
		var req shapeRequest
		if err := decodeStrict([]byte(c.body), &req); err != nil {
			t.Errorf("body %q: fast parser accepted what stdlib rejects: %v", c.body, err)
		} else if req.M != p.m || req.K != p.k || req.N != p.n || req.Device != string(p.device) {
			t.Errorf("body %q: fast (%d,%d,%d,%q) != stdlib (%d,%d,%d,%q)",
				c.body, p.m, p.k, p.n, p.device, req.M, req.K, req.N, req.Device)
		}
	}

	punt := []string{
		``, `null`, `[]`, `{`, `{"m":1`, `{"m":1.5,"k":2,"n":3}`,
		`{"m":1e3,"k":2,"n":3}`, `{"m":"1","k":2,"n":3}`,
		`{"m":1,"k":2,"n":3,"extra":4}`, `{"m":1,"k":2,"n":3}x`,
		`{"m":1,"k":2,"n":3} {"m":4}`, `{"device":"a\"b","m":1,"k":2,"n":3}`,
		`{"device":"ü","m":1,"k":2,"n":3}`, `{"m":12345678901234567890,"k":2,"n":3}`,
		`{"m":null,"k":2,"n":3}`, `{"m":1,"k":2,"n":3,}`,
	}
	for _, body := range punt {
		if _, ok := parseSelectBody([]byte(body)); ok {
			t.Errorf("body %q: fast parser accepted, want punt to stdlib", body)
		}
	}
}

func TestAppendBatchMatchesStdlib(t *testing.T) {
	results := []Decision{
		{Device: "a", Shape: "1x2x3", Config: "c0", KernelID: "k0"},
		{Device: "a", Shape: "4x5x6", Config: "c1", Index: 1, KernelID: "k1", Generation: 2},
		{Device: "a", Shape: "7x8x9", Config: "c2"},
	}
	want, err := json.Marshal(batchResponse{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if got := appendBatch(nil, results); string(got) != string(want) {
		t.Errorf("batch:\n append: %s\n stdlib: %s", got, want)
	}
	if got, want := string(appendBatch(nil, nil)), `{"results":[]}`; got != want {
		t.Errorf("empty batch: %s, want %s", got, want)
	}
}
