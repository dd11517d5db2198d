package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// conn is a lean HTTP/1.1 keep-alive client on one TCP connection. It
// writes each request line from a reused buffer and parses only what a
// kv reply needs, so the client's own cost stays small and constant.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 4096), buf: make([]byte, 0, 512)}, nil
}

func (c *conn) Close() error { return c.nc.Close() }

// reply is the decoded body of a kv reply.
type reply struct {
	status                  int
	found, applied, existed bool
	val, count, sum         uint64
}

// do sends op (tagged with reqID when reqID > 0) and reads its reply.
func (c *conn) do(op *Op, reqID uint64, r *reply) error {
	b := c.buf[:0]
	switch op.Kind {
	case Get:
		b = append(b, "GET /kv/get?key="...)
		b = strconv.AppendUint(b, op.Key, 10)
	case Put:
		b = append(b, "POST /kv/put?key="...)
		b = strconv.AppendUint(b, op.Key, 10)
		b = append(b, "&val="...)
		b = strconv.AppendUint(b, op.Val, 10)
	case Del:
		b = append(b, "POST /kv/del?key="...)
		b = strconv.AppendUint(b, op.Key, 10)
	case CAS:
		b = append(b, "POST /kv/cas?key="...)
		b = strconv.AppendUint(b, op.Key, 10)
		b = append(b, "&old="...)
		b = strconv.AppendUint(b, op.Old, 10)
		b = append(b, "&new="...)
		b = strconv.AppendUint(b, op.Val, 10)
	case MPut:
		b = append(b, "POST /kv/mput?keys="...)
		for j, k := range op.Keys {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, k, 10)
		}
		b = append(b, "&vals="...)
		for j, v := range op.Vals {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, v, 10)
		}
	case Range:
		b = appendRange(b, op.Key, op.Key+rangeSpan-1)
	}
	c.buf = b
	return c.roundTrip(reqID, r, true)
}

func appendRange(b []byte, lo, hi uint64) []byte {
	b = append(b, "GET /kv/range?lo="...)
	b = strconv.AppendUint(b, lo, 10)
	b = append(b, "&hi="...)
	return strconv.AppendUint(b, hi, 10)
}

// scan reads the count and sum of [lo, hi] through /kv/range.
func (c *conn) scan(lo, hi uint64, r *reply) error {
	c.buf = appendRange(c.buf[:0], lo, hi)
	return c.roundTrip(0, r, true)
}

// healthy reports whether /healthz answers 200.
func (c *conn) healthy() (bool, error) {
	c.buf = append(c.buf[:0], "GET /healthz"...)
	var r reply
	err := c.roundTrip(0, &r, false)
	return err == nil && r.status == 200, err
}

// roundTrip finishes the request line in c.buf, sends it and reads the
// reply, decoding its body when decode is set.
func (c *conn) roundTrip(reqID uint64, r *reply, decode bool) error {
	b := append(c.buf, " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n"...)
	if reqID > 0 {
		b = append(b, requestIDHeader+": "...)
		b = strconv.AppendUint(b, reqID, 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	c.buf = b
	if _, err := c.nc.Write(b); err != nil {
		return err
	}
	return c.readReply(r, decode)
}

var errProtocol = errors.New("malformed HTTP reply")

// readReply parses a status line, headers with a Content-Length, and
// (when decode is set) a flat JSON object body.
func (c *conn) readReply(r *reply, decode bool) error {
	*r = reply{}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return fmt.Errorf("%w: status line %q", errProtocol, line)
	}
	r.status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(line) <= 2 {
			break
		}
		if name, val, ok := bytes.Cut(line, []byte(":")); ok && asciiEqualFold(name, "content-length") {
			n, err := strconv.Atoi(string(bytes.TrimSpace(val)))
			if err != nil {
				return fmt.Errorf("%w: content-length %q", errProtocol, val)
			}
			length = n
		}
	}
	if length < 0 || length > c.br.Size() {
		return fmt.Errorf("%w: content-length %d", errProtocol, length)
	}
	body, err := c.br.Peek(length)
	if err != nil {
		return err
	}
	if decode {
		err = parseReply(body, r)
	}
	c.br.Discard(length) //nolint:errcheck // Peek already buffered length bytes
	return err
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
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

// parseReply decodes the flat JSON object a kv endpoint answers with
// (booleans, unsigned numbers and an error string). Any other shape is a
// protocol error.
func parseReply(body []byte, r *reply) error {
	p := bytes.TrimSpace(body)
	if len(p) < 2 || p[0] != '{' || p[len(p)-1] != '}' {
		return fmt.Errorf("%w: body %q", errProtocol, body)
	}
	p = p[1 : len(p)-1]
	for len(p) > 0 {
		if p[0] != '"' {
			return fmt.Errorf("%w: body %q", errProtocol, body)
		}
		end := bytes.IndexByte(p[1:], '"')
		if end < 0 || len(p) < end+3 || p[end+2] != ':' {
			return fmt.Errorf("%w: body %q", errProtocol, body)
		}
		name := string(p[1 : end+1])
		p = p[end+3:]
		var v []byte
		if len(p) > 0 && p[0] == '"' {
			close := bytes.IndexByte(p[1:], '"')
			if close < 0 {
				return fmt.Errorf("%w: body %q", errProtocol, body)
			}
			v, p = p[:close+2], p[close+2:]
		} else {
			i := bytes.IndexByte(p, ',')
			if i < 0 {
				i = len(p)
			}
			v, p = p[:i], p[i:]
		}
		if len(p) > 0 {
			if p[0] != ',' {
				return fmt.Errorf("%w: body %q", errProtocol, body)
			}
			p = p[1:]
		}
		switch name {
		case "found", "applied", "existed":
			b := string(v) == "true"
			if !b && string(v) != "false" {
				return fmt.Errorf("%w: %s=%q", errProtocol, name, v)
			}
			switch name {
			case "found":
				r.found = b
			case "applied":
				r.applied = b
			default:
				r.existed = b
			}
		case "val", "count", "sum":
			n, err := strconv.ParseUint(string(v), 10, 64)
			if err != nil {
				return fmt.Errorf("%w: %s=%q", errProtocol, name, v)
			}
			switch name {
			case "val":
				r.val = n
			case "count":
				r.count = n
			default:
				r.sum = n
			}
		default:
			// An error reply's "err" string is not decoded: the status
			// code already marks the request failed.
		}
	}
	return nil
}

// waitHealthy polls /healthz until it answers 200 or the deadline passes.
func waitHealthy(addr string, deadline time.Time) error {
	for {
		c, err := dial(addr)
		if err == nil {
			var ok bool
			ok, err = c.healthy()
			c.Close()
			if ok {
				return nil
			}
			if err == nil {
				err = errors.New("healthz not 200")
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}
