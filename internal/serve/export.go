package serve

import (
	"bytes"
	"strconv"
	"strings"
)

// This file exposes the select path's hand-rolled scan and encoder on their
// own, so a benchmark can time each layer of the path, plus a scanner for the
// generation an encoded decision carries. A cluster router needs none of it:
// it mounts selectd's handlers, so a body is refused (or served) alike by a
// router and by a bare replica.

// ParseSelectWire scans the canonical {"m":..,"k":..,"n":..,"device":".."}
// select request without allocating — the fast scan parseSelect tries first.
// ok=false means the body is something the scanner does not fully trust
// (escapes, floats, unknown fields, nested values). device aliases body and
// must be consumed before the buffer is reused.
func ParseSelectWire(body []byte) (m, k, n int, device []byte, ok bool) {
	p, ok := parseSelectBody(body)
	return p.m, p.k, p.n, p.device, ok
}

// AppendDecisionJSON append-encodes one Decision exactly as encoding/json
// renders it (field order, number formatting), without the trailing newline.
func AppendDecisionJSON(b []byte, d *Decision) []byte { return appendDecision(b, d) }

// ScanDecisionMeta extracts the generation stamp from an encoded Decision
// body without unmarshalling it. It understands any top-level object whose
// values are scalars — exactly what AppendDecisionJSON and encoding/json
// produce for Decision — and reports ok=false for anything it cannot fully
// account for (nested values, malformed syntax, a key that encoding/json
// would match to generation only after unescaping or case folding), so a
// caller keying bodies by generation never mis-stamps one it did not
// understand. Trailing whitespace (the Encode newline) is accepted.
//
// Nothing calls it: the cluster router answers from its own engine and reads
// no replica's decision body. It stays, with its fuzz target, until a later
// change retires both (ROADMAP item 2).
func ScanDecisionMeta(body []byte) (gen uint64, ok bool) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return 0, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return 0, end(body, i+1)
	}
	for {
		key, j, kok := scanMetaString(body, i)
		if !kok {
			return 0, false
		}
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return 0, false
		}
		i = skipSpace(body, i+1)
		switch {
		case string(key) == "generation":
			start := i
			j, vok := skipScalar(body, i)
			if !vok {
				return 0, false
			}
			g, err := strconv.ParseUint(string(body[start:j]), 10, 64)
			if err != nil {
				return 0, false
			}
			gen = g
			i = j
		case bytes.IndexByte(key, '\\') >= 0 || bytes.EqualFold(key, []byte("generation")):
			return 0, false
		default:
			j, vok := skipScalar(body, i)
			if !vok {
				return 0, false
			}
			i = j
		}
		i = skipSpace(body, i)
		if i >= len(body) {
			return 0, false
		}
		if body[i] == '}' {
			return gen, end(body, i+1)
		}
		if body[i] != ',' {
			return 0, false
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
