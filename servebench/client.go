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

// rawConn is a keep-alive HTTP/1.1 client connection with hand-rolled
// framing, the same design as the repository's wire benchmark: a prebuilt
// request goes out, the status line and body come back into a reused buffer.
// net/http's client allocates dozens of objects per request, which would
// compete with the server for the same two cores and blur its numbers.
type rawConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dial(addr string) (*rawConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &rawConn{addr: addr, c: c, br: bufio.NewReaderSize(c, 16<<10), buf: make([]byte, 0, 16<<10)}, nil
}

// redial replaces a connection a transport error left in an unknown state.
func (rc *rawConn) redial() error {
	rc.c.Close()
	c, err := net.DialTimeout("tcp", rc.addr, 5*time.Second)
	if err != nil {
		return err
	}
	rc.c = c
	rc.br.Reset(c)
	return nil
}

func (rc *rawConn) close() { rc.c.Close() }

// httpRequest prebuilds the bytes of one HTTP/1.1 request.
func httpRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: servebench\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// roundTrip writes one prebuilt request and reads the response. The body
// aliases the connection's buffer until the next call.
func (rc *rawConn) roundTrip(req []byte) (status int, body []byte, err error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	clen, chunked := -1, false
	for {
		line, err = rc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if clen, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	switch {
	case chunked:
		rc.buf, err = readChunked(rc.br, rc.buf[:0])
		return status, rc.buf, err
	case clen >= 0:
		if cap(rc.buf) < clen {
			rc.buf = make([]byte, clen)
		}
		rc.buf = rc.buf[:clen]
		_, err = io.ReadFull(rc.br, rc.buf)
		return status, rc.buf, err
	default:
		return 0, nil, errors.New("response has neither Content-Length nor chunked framing")
	}
}

func readChunked(br *bufio.Reader, dst []byte) ([]byte, error) {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return dst, err
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(bytes.SplitN(line, []byte(";"), 2)[0])), 16, 64)
		if err != nil {
			return dst, fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			// Trailer section: read up to the terminating blank line.
			for {
				line, err = br.ReadSlice('\n')
				if err != nil || len(bytes.TrimRight(line, "\r\n")) == 0 {
					return dst, err
				}
			}
		}
		n := len(dst)
		dst = append(dst, make([]byte, size)...)
		if _, err := io.ReadFull(br, dst[n:]); err != nil {
			return dst, err
		}
		if _, err := br.Discard(2); err != nil { // chunk CRLF
			return dst, err
		}
	}
}
