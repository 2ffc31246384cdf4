package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one caller's keep-alive HTTP/1.1 connection. It writes each
// request with a single syscall and parses the response framing by hand, so
// the load generator allocates nothing per request and its own cost stays a
// small, steady part of the measured latency.
type conn struct {
	addr  string
	c     net.Conn
	br    *bufio.Reader
	req   []byte
	body  []byte
	close bool
}

func dial(addr string) (*conn, error) {
	cn := &conn{addr: addr, req: make([]byte, 0, 512), body: make([]byte, 0, 16<<10)}
	if err := cn.redial(); err != nil {
		return nil, err
	}
	return cn, nil
}

func (cn *conn) redial() error {
	if cn.c != nil {
		cn.c.Close()
	}
	c, err := net.DialTimeout("tcp", cn.addr, 5*time.Second)
	if err != nil {
		cn.c = nil
		return fmt.Errorf("dial %s: %w", cn.addr, err)
	}
	cn.c = c
	if cn.br == nil {
		cn.br = bufio.NewReaderSize(c, 32<<10)
	} else {
		cn.br.Reset(c)
	}
	cn.close = false
	return nil
}

func (cn *conn) Close() {
	if cn.c != nil {
		cn.c.Close()
		cn.c = nil
	}
}

// do sends one request and returns the status and body. The body aliases a
// buffer the next call reuses. After a transport error the connection is
// re-dialled on the next call.
func (cn *conn) do(method, path string, body []byte) (int, []byte, error) {
	if cn.c == nil || cn.close {
		if err := cn.redial(); err != nil {
			return 0, nil, err
		}
	}
	b := append(cn.req[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	cn.req = b
	if _, err := cn.c.Write(b); err != nil {
		cn.Close()
		return 0, nil, err
	}
	status, resp, err := cn.readResponse()
	if err != nil {
		cn.Close()
		return 0, nil, err
	}
	return status, resp, nil
}

var errFraming = errors.New("malformed HTTP response")

func (cn *conn) readResponse() (int, []byte, error) {
	line, err := cn.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, errFraming
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length, chunked := -1, false
	for {
		line, err = cn.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, errFraming
		}
		value = bytes.TrimSpace(value)
		switch {
		case asciiEqualFold(name, "content-length"):
			n, ok := parseDecimal(value)
			if !ok {
				return 0, nil, errFraming
			}
			length = n
		case asciiEqualFold(name, "transfer-encoding"):
			chunked = asciiEqualFold(value, "chunked")
		case asciiEqualFold(name, "connection"):
			cn.close = asciiEqualFold(value, "close")
		}
	}
	body := cn.body[:0]
	switch {
	case chunked:
		for {
			line, err = cn.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, err := strconv.ParseUint(string(bytes.TrimSpace(bytes.SplitN(line, []byte(";"), 2)[0])), 16, 31)
			if err != nil {
				return 0, nil, errFraming
			}
			if size == 0 {
				for { // trailers end with an empty line
					line, err = cn.br.ReadSlice('\n')
					if err != nil {
						return 0, nil, err
					}
					if len(line) <= 2 {
						break
					}
				}
				break
			}
			body, err = readN(cn.br, body, int(size))
			if err != nil {
				return 0, nil, err
			}
			if _, err := cn.br.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		if body, err = readN(cn.br, body, length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errFraming // the daemons always frame their responses
	}
	cn.body = body
	return status, body, nil
}

// readN appends exactly n bytes from r to dst.
func readN(r io.Reader, dst []byte, n int) ([]byte, error) {
	start := len(dst)
	if cap(dst)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+n]
	_, err := io.ReadFull(r, dst[start:])
	return dst, err
}

// parseDecimal parses a non-negative decimal integer without allocating.
func parseDecimal(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}
