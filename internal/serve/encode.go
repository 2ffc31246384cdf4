package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"kernelselect/internal/gemm"
)

// This file is the wire half of the zero-allocation hot path. The stdlib
// json Encoder/Decoder are correct but allocate per request (decoder state,
// reflection scratch, the bytes.Buffer inside Encode); beside a decision that
// costs a compiled-tree walk, that allocation would be most of the handler. Instead, request bodies land in a
// pooled buffer, a hand-rolled scanner handles the overwhelmingly common
// {"m":..,"k":..,"n":..,"device":".."} form, and responses are appended into
// the same pooled buffer with strconv. Anything the fast scanner is unsure
// about falls back to the strict stdlib decoder, so error semantics (unknown
// fields, trailing garbage, type mismatches) stay byte-for-byte identical.

// maxRequestBody caps request bodies, as before through http.MaxBytesReader
// semantics: oversized bodies answer 413 and poison the connection.
const maxRequestBody = 8 << 20

// bufPool holds the per-request scratch: the body is read into it, then it
// is reset and the response is encoded into it. Steady-state requests touch
// the heap zero times for I/O.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

var jsonContentType = []string{"application/json"}

// readBody reads the request body into buf (the pooled scratch), growing it
// only when a body outsizes the pool's capacity. Declared-length bodies take
// the exact-read fast path; chunked bodies fall back to a capped ReadAll.
// Errors map exactly onto the old MaxBytesReader behaviour.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	if n := r.ContentLength; n >= 0 {
		if n > maxRequestBody {
			return buf[:0], &http.MaxBytesError{Limit: maxRequestBody}
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return buf[:0], fmt.Errorf("decoding request body: %w", err)
		}
		return buf, nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		return buf[:0], err
	}
	return body, nil
}

// decodeStrict is the slow-path decoder with the exact semantics decodeBody
// always had: unknown fields and trailing garbage are errors, an empty body
// surfaces as io.EOF.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return err
		}
		return fmt.Errorf("decoding request body: %w", err)
	}
	if dec.More() {
		return errors.New("trailing data after request body")
	}
	return nil
}

// parsedSelect is the fast scanner's output; device aliases the body buffer
// and must be consumed before the buffer is reused.
type parsedSelect struct {
	m, k, n int
	device  []byte
}

// parseSelectBody scans the canonical select request form without
// allocating. It accepts exactly the object {"m":int,"k":int,"n":int,
// "device":"simple string"} with fields in any order, duplicates last-wins
// (matching encoding/json), and arbitrary whitespace. It reports ok=false —
// punting to the strict decoder — for anything else: non-integer numbers,
// escaped or non-ASCII strings, unknown fields, nested values, trailing
// bytes. False negatives only cost speed; false positives are impossible
// because the scanner accepts a strict subset of what encoding/json accepts.
func parseSelectBody(body []byte) (p parsedSelect, ok bool) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return p, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		// Empty object: all fields zero — shape validation rejects it with
		// the same 400 the stdlib path produces.
		return p, end(body, i+1)
	}
	for {
		key, j, kok := scanString(body, i)
		if !kok {
			return p, false
		}
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return p, false
		}
		i = skipSpace(body, i+1)
		switch {
		case len(key) == 1 && (key[0] == 'm' || key[0] == 'k' || key[0] == 'n'):
			v, j, vok := scanInt(body, i)
			if !vok {
				return p, false
			}
			switch key[0] {
			case 'm':
				p.m = v
			case 'k':
				p.k = v
			default:
				p.n = v
			}
			i = j
		case bytes.Equal(key, []byte("device")):
			v, j, vok := scanString(body, i)
			if !vok {
				return p, false
			}
			p.device = v
			i = j
		default:
			return p, false // unknown field: let the strict decoder reject it
		}
		i = skipSpace(body, i)
		if i >= len(body) {
			return p, false
		}
		if body[i] == '}' {
			return p, end(body, i+1)
		}
		if body[i] != ',' {
			return p, false
		}
		i = skipSpace(body, i+1)
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// end reports whether only whitespace remains — the no-trailing-garbage rule.
func end(b []byte, i int) bool { return skipSpace(b, i) == len(b) }

// scanString scans a double-quoted string containing no escapes and no bytes
// the encoder would need to escape; anything fancier punts to the stdlib.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	j := i + 1
	for j < len(b) {
		c := b[j]
		if c == '"' {
			return b[i+1 : j], j + 1, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, i, false
		}
		j++
	}
	return nil, i, false
}

// scanInt scans an optionally-negative decimal integer. Floats, exponents,
// overlong digit runs and leading zeros (not JSON) punt to the stdlib so
// errors keep their exact stdlib text.
func scanInt(b []byte, i int) (v, next int, ok bool) {
	j := i
	neg := false
	if j < len(b) && b[j] == '-' {
		neg = true
		j++
	}
	start := j
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		v = v*10 + int(b[j]-'0')
		j++
	}
	if j == start || j-start > 18 || (b[start] == '0' && j-start > 1) {
		return 0, i, false
	}
	if j < len(b) && (b[j] == '.' || b[j] == 'e' || b[j] == 'E') {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, j, true
}

// ---------------------------------------------------------------------------
// Append-style response encoding
// ---------------------------------------------------------------------------

// appendJSONString appends a quoted string. The fast path covers strings the
// encoder would pass through verbatim (printable ASCII minus the characters
// encoding/json escapes, HTML-safe mode included); anything else round-trips
// through json.Marshal so escaping is exactly the stdlib's.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				return append(append(b, '"'), '"')
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendDecision appends one Decision exactly as encoding/json renders it:
// same field order, same omitempty behaviour, same string escaping.
func appendDecision(b []byte, d *Decision) []byte {
	b = appendDecisionHead(b, d)
	b = appendJSONString(b, d.Shape)
	return appendDecisionTail(b, d)
}

// appendSelection is appendDecision for a select answer whose Shape is still
// the numeric s: the shape's digits render straight into b, so the select
// handler builds no shape string. The bytes equal appendDecision's with
// d.Shape set to s.String().
func appendSelection(b []byte, d *Decision, s gemm.Shape) []byte {
	b = appendDecisionHead(b, d)
	b = append(b, '"')
	b = strconv.AppendInt(b, int64(s.M), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(s.K), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(s.N), 10)
	b = append(b, '"')
	return appendDecisionTail(b, d)
}

// appendDecisionHead appends a Decision's fields up to the shape's value.
func appendDecisionHead(b []byte, d *Decision) []byte {
	b = append(b, `{"device":`...)
	b = appendJSONString(b, d.Device)
	return append(b, `,"shape":`...)
}

// appendDecisionTail appends a Decision's fields after the shape's value.
func appendDecisionTail(b []byte, d *Decision) []byte {
	b = append(b, `,"config":`...)
	b = appendJSONString(b, d.Config)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(d.Index), 10)
	b = append(b, `,"kernel_id":`...)
	b = appendJSONString(b, d.KernelID)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, d.Generation, 10)
	if d.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if d.DegradedReason != "" {
		b = append(b, `,"degraded_reason":`...)
		b = appendJSONString(b, d.DegradedReason)
	}
	return append(b, '}')
}

// appendBatch appends a batchResponse body.
func appendBatch(b []byte, results []Decision) []byte {
	b = append(b, `{"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendDecision(b, &results[i])
	}
	return append(b, `]}`...)
}

// writeRawJSON writes a pre-encoded JSON body without the Encoder's
// allocations. The trailing newline matches json.Encoder.Encode, so clients
// and tests see byte-identical bodies either way.
func writeRawJSON(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(body)
}
