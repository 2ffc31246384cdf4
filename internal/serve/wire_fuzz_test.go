package serve

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"kernelselect/internal/gemm"
)

// ParseSelectWire and ScanDecisionMeta are hand-rolled scanners over bytes
// from another process. They may refuse anything they do not fully
// understand, but whatever they accept must mean to them exactly what it
// means to encoding/json. The fuzz targets below check that differentially;
// their seed corpora are bodies the encoders produce, plus inputs that once
// disagreed.

func FuzzParseSelectWire(f *testing.F) {
	for _, req := range []shapeRequest{
		{M: 784, K: 1152, N: 256},
		{M: 1, K: 4096, N: 1000, Device: "r9nano"},
		{M: 100352, K: 3, N: 64, Device: "gen9"},
		{M: -1, K: 0, N: 7},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(` { "n" : 3 , "k" : 2 , "m" : 1 , "device" : "mali" } ` + "\n"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"m":01,"k":1,"n":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		m, k, n, dev, ok := ParseSelectWire(body)
		if !ok {
			return
		}
		var req shapeRequest
		if err := decodeStrict(body, &req); err != nil {
			t.Fatalf("scanner accepted %q, the strict decoder rejects it: %v", body, err)
		}
		if req.M != m || req.K != k || req.N != n || req.Device != string(dev) {
			t.Fatalf("%q: scanner read m=%d k=%d n=%d device=%q, encoding/json read %+v", body, m, k, n, dev, req)
		}
	})
}

func FuzzScanDecisionMeta(f *testing.F) {
	full := Decision{
		Device: "r9nano", Shape: gemm.Shape{M: 784, K: 1152, N: 256}.String(), Config: "cfg",
		Index: 3, KernelID: "k3", Generation: 7,
	}
	last := full
	last.Generation = math.MaxUint64
	for _, d := range []Decision{full, last, {}} {
		f.Add(AppendDecisionJSON(nil, &d))
		b, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(b, '\n'))
	}
	f.Add([]byte(`{"generation":5,"Generation":6}`))
	f.Add([]byte(`{"generation":5}`))
	f.Add([]byte(`{"generation":5,"index":-}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		gen, ok := ScanDecisionMeta(body)
		if !ok {
			return
		}
		var d Decision
		// A type mismatch on some other field still decodes the rest; only a
		// syntax error means encoding/json sees no decision at all.
		var syntax *json.SyntaxError
		if err := json.Unmarshal(body, &d); errors.As(err, &syntax) {
			t.Fatalf("scanner accepted %q, which is not JSON: %v", body, err)
		}
		if d.Generation != gen {
			t.Fatalf("%q: scanner read generation=%d, encoding/json read generation=%d", body, gen, d.Generation)
		}
	})
}
