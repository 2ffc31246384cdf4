package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"kernelselect/internal/gemm"
)

// This file is the package's wire toolkit as seen by other tiers. The cluster
// router proxies selectd's JSON surface and wants the same zero-allocation
// treatment the replica hot path got: read the body into a pooled buffer,
// scan the canonical request form without reflection, and append-encode
// responses byte-identically to encoding/json. Exporting thin wrappers keeps
// one copy of the format knowledge — if the Decision encoding changes, the
// router's pre-rendered cache bodies change with it. The same goes for what
// a valid request is: ParseSelect and ParseBatch are the one definition, and
// both tiers parse with them before resolving the device, so a body is
// refused (or served) alike by a router and by a bare replica.

// ReadRequestBody reads r's body into buf (caller-pooled scratch), growing it
// only when the body outsizes the buffer. Semantics are identical to the
// serving handlers' own body reads, including the MaxBytesReader error shape
// for oversized bodies.
func ReadRequestBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	return readBody(w, r, buf)
}

// ParseSelectWire scans the canonical {"m":..,"k":..,"n":..,"device":".."}
// select request without allocating — the fast scan ParseSelect tries first.
// ok=false means the body is something the scanner does not fully trust
// (escapes, floats, unknown fields, nested values). device aliases body and
// must be consumed before the buffer is reused.
func ParseSelectWire(body []byte) (m, k, n int, device []byte, ok bool) {
	p, ok := parseSelectBody(body)
	return p.m, p.k, p.n, p.device, ok
}

// ParseSelect parses a POST /v1/select body: the allocation-free scan of the
// canonical form, else the strict decoder (unknown fields, trailing data and
// type mismatches are errors), then shape validation. The device is returned
// unresolved; it aliases body on the fast path and must be consumed before
// the buffer is reused. A well-formed canonical body allocates nothing.
func ParseSelect(body []byte) (shape gemm.Shape, device []byte, err error) {
	if p, ok := parseSelectBody(body); ok {
		shape, device = gemm.Shape{M: p.m, K: p.k, N: p.n}, p.device
	} else {
		var req shapeRequest
		if err := decodeStrict(body, &req); err != nil {
			return gemm.Shape{}, nil, err
		}
		shape, device = gemm.Shape{M: req.M, K: req.K, N: req.N}, []byte(req.Device)
	}
	if err := shape.Validate(); err != nil {
		return gemm.Shape{}, nil, err
	}
	return shape, device, nil
}

// ParseBatch parses a POST /v1/select/batch body: the strict decoder, then
// the batch size (1 to MaxBatch shapes), then every shape. The device is
// returned unresolved.
func ParseBatch(body []byte) (device string, shapes []gemm.Shape, err error) {
	var req batchRequest
	if err := decodeStrict(body, &req); err != nil {
		return "", nil, err
	}
	switch n := len(req.Shapes); {
	case n == 0:
		return "", nil, errors.New("batch has no shapes")
	case n > MaxBatch:
		return "", nil, fmt.Errorf("batch of %d shapes exceeds limit %d", n, MaxBatch)
	}
	shapes = make([]gemm.Shape, len(req.Shapes))
	for i, sr := range req.Shapes {
		shapes[i] = gemm.Shape{M: sr.M, K: sr.K, N: sr.N}
		if err := shapes[i].Validate(); err != nil {
			return "", nil, fmt.Errorf("shape %d: %v", i, err)
		}
	}
	return req.Device, shapes, nil
}

// RequestError maps a ReadRequestBody, ParseSelect or ParseBatch error to the
// status and newline-terminated JSON error body selectd answers it with: 413
// when the body blew the size cap, 400 for everything else.
func RequestError(err error) (status int, body []byte) {
	status, msg := http.StatusBadRequest, err.Error()
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status, msg = http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)
	}
	body, _ = json.Marshal(errorResponse{Error: msg})
	return status, append(body, '\n')
}

// AppendDecisionJSON append-encodes one Decision exactly as encoding/json
// renders it (field order, omitempty, number formatting), without the
// trailing newline.
func AppendDecisionJSON(b []byte, d *Decision) []byte { return appendDecision(b, d) }

// AppendBatchJSON append-encodes a batch response body ({"results":[...]}),
// without the trailing newline.
func AppendBatchJSON(b []byte, results []Decision) []byte { return appendBatch(b, results) }

// ScanDecisionMeta extracts the generation stamp and degraded flag from an
// encoded Decision body without unmarshalling it. It understands any
// top-level object whose values are scalars — exactly what AppendDecisionJSON
// and encoding/json produce for Decision — and reports ok=false for anything
// it cannot fully account for (nested values, malformed syntax, a key that
// encoding/json would match to generation or degraded only after unescaping
// or case folding), so a caller caching bodies by generation never
// mis-stamps one it did not understand. Trailing whitespace (the Encode
// newline) is accepted.
func ScanDecisionMeta(body []byte) (gen uint64, degraded bool, ok bool) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return 0, false, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return 0, false, end(body, i+1)
	}
	for {
		key, j, kok := scanMetaString(body, i)
		if !kok {
			return 0, false, false
		}
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return 0, false, false
		}
		i = skipSpace(body, i+1)
		switch {
		case string(key) == "generation":
			start := i
			j, vok := skipScalar(body, i)
			if !vok {
				return 0, false, false
			}
			g, err := strconv.ParseUint(string(body[start:j]), 10, 64)
			if err != nil {
				return 0, false, false
			}
			gen = g
			i = j
		case string(key) == "degraded":
			switch {
			case hasPrefixAt(body, i, "true"):
				degraded = true
				i += 4
			case hasPrefixAt(body, i, "false"):
				degraded = false
				i += 5
			default:
				return 0, false, false
			}
		case bytes.IndexByte(key, '\\') >= 0 || bytes.EqualFold(key, []byte("generation")) ||
			bytes.EqualFold(key, []byte("degraded")):
			return 0, false, false
		default:
			j, vok := skipScalar(body, i)
			if !vok {
				return 0, false, false
			}
			i = j
		}
		i = skipSpace(body, i)
		if i >= len(body) {
			return 0, false, false
		}
		if body[i] == '}' {
			return gen, degraded, end(body, i+1)
		}
		if body[i] != ',' {
			return 0, false, false
		}
		i = skipSpace(body, i+1)
	}
}

// scanMetaString scans a quoted JSON string, escapes included, returning its
// raw bytes between the quotes. Control characters and malformed escapes are
// not JSON and report ok=false.
func scanMetaString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	j := i + 1
	for j < len(b) {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20:
			return nil, i, false
		case c != '\\':
			j++
		case j+1 < len(b) && strings.IndexByte(`"\\/bfnrt`, b[j+1]) >= 0:
			j += 2
		case j+5 < len(b) && b[j+1] == 'u' && isHex(b[j+2]) && isHex(b[j+3]) && isHex(b[j+4]) && isHex(b[j+5]):
			j += 6
		default:
			return nil, i, false
		}
	}
	return nil, i, false
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// skipScalar advances past one scalar JSON value: string, number, true,
// false, or null. Nested objects/arrays report ok=false.
func skipScalar(b []byte, i int) (next int, ok bool) {
	if i >= len(b) {
		return i, false
	}
	switch c := b[i]; {
	case c == '"':
		_, j, sok := scanMetaString(b, i)
		return j, sok
	case c == '-' || (c >= '0' && c <= '9'):
		return skipNumber(b, i)
	case hasPrefixAt(b, i, "true"):
		return i + 4, true
	case hasPrefixAt(b, i, "false"):
		return i + 5, true
	case hasPrefixAt(b, i, "null"):
		return i + 4, true
	}
	return i, false
}

// skipNumber advances past one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func skipNumber(b []byte, i int) (next int, ok bool) {
	digits := func(j int) int {
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		return j
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		j = digits(j + 1)
	default:
		return i, false
	}
	if j < len(b) && b[j] == '.' {
		k := digits(j + 1)
		if k == j+1 {
			return i, false
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(j)
		if k == j {
			return i, false
		}
		j = k
	}
	return j, true
}

func hasPrefixAt(b []byte, i int, s string) bool {
	return len(b)-i >= len(s) && string(b[i:i+len(s)]) == s
}
