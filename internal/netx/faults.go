package netx

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
)

// Fault injectors used by resilience tests across the repository: a
// RoundTripper that fails the first N HTTP requests and a Listener that
// kills the first N accepted connections. Both live in the package
// proper (not a _test file) so objstore, docstore, and brokerd tests can
// share them.

// FlakyTransport fails the first Fail requests with a synthetic
// connection error, then delegates to Base (http.DefaultTransport when
// nil). Safe for concurrent use.
type FlakyTransport struct {
	// Fail is how many leading requests to drop.
	Fail int32
	// CutAfter, when positive, lets the leading Fail requests through to
	// Base and breaks each one's response body after this many bytes
	// instead — a transfer cut mid-stream rather than refused.
	CutAfter int64
	// Base handles requests once the fault budget is spent.
	Base http.RoundTripper

	attempts atomic.Int32
}

// RoundTrip implements http.RoundTripper.
func (t *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.attempts.Add(1)
	if n <= t.Fail && t.CutAfter <= 0 {
		return nil, fmt.Errorf("netx: injected fault on request %d of %d", n, t.Fail)
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err == nil && n <= t.Fail {
		resp.Body = &cutBody{ReadCloser: resp.Body, left: t.CutAfter}
	}
	return resp, err
}

// cutBody is a response body whose connection dies after left bytes.
type cutBody struct {
	io.ReadCloser
	left int64
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, fmt.Errorf("netx: injected fault: connection cut mid-body")
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.ReadCloser.Read(p)
	b.left -= int64(n)
	return n, err
}

// Attempts reports how many requests have been attempted (including the
// dropped ones).
func (t *FlakyTransport) Attempts() int { return int(t.attempts.Load()) }

// FlakyListener wraps a net.Listener and immediately closes the first
// Drop accepted connections — the client sees an accept-then-reset, the
// same shape as a server restarting under it.
type FlakyListener struct {
	net.Listener
	// Drop is how many leading connections to kill.
	Drop int32

	accepted atomic.Int32
}

// Accept implements net.Listener.
func (l *FlakyListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.accepted.Add(1) <= l.Drop {
			_ = conn.Close()
			continue
		}
		return conn, nil
	}
}

// Accepted reports total accepted connections, dropped ones included.
func (l *FlakyListener) Accepted() int { return int(l.accepted.Load()) }
