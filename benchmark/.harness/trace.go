package main

import (
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one call into a daemon's public endpoint, seen from
// outside: an HTTP request to raifs or raidb, or a TCP connection to
// raibroker. Times are seconds since the round's epoch.
type span struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent"`
	// Job is the id the program gave the job ("" when the call carried
	// none and no listener pins it to one).
	Job      string  `json:"job"`
	Edge     string  `json:"edge"`
	Op       string  `json:"op"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	BytesIn  int64   `json:"bytes_in"`
	BytesOut int64   `json:"bytes_out"`
	Status   int     `json:"status"`

	student int    // the student whose listener took the call; -1 on a shared edge
	trace   string // X-RAI-Trace-ID, the fallback join key
}

// edgeBytes are live counters of one TCP edge. The worker, collector,
// raifs and raidb each hold one broker connection for a whole round, so
// their traffic is read at the window's edges, not from finished spans.
type edgeBytes struct{ in, out, conns atomic.Int64 }

// tracer owns the round's timing proxies: one listener per edge, and on
// the rai edges one per student, so that every call into a daemon
// becomes a span with no change to the program. A nil tracer hands out
// the daemon's own address and records nothing.
type tracer struct {
	epoch     time.Time
	transport *http.Transport
	buffers   copyBuffers
	nextID    atomic.Int64

	mu      sync.Mutex
	spans   []span
	bytes   map[string]*edgeBytes
	closers []io.Closer
	pumps   sync.WaitGroup
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{
		epoch: epoch,
		// One kept-alive pool towards the daemons, as roomy as the callers' own.
		transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 32, IdleConnTimeout: time.Minute,
			DisableCompression: true}, // forward what the caller sent, nothing more
		bytes: map[string]*edgeBytes{},
	}
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) counter(edge string) *edgeBytes {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.bytes[edge]
	if c == nil {
		c = &edgeBytes{}
		t.bytes[edge] = c
	}
	return c
}

// edgeTotals snapshots the live TCP counters: bytes both ways, and
// connections opened, per edge.
func (t *tracer) edgeTotals() (bytes, conns map[string]int64) {
	bytes, conns = map[string]int64{}, map[string]int64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for edge, c := range t.bytes {
		bytes[edge] = c.in.Load() + c.out.Load()
		conns[edge] = c.conns.Load()
	}
	return bytes, conns
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.closers = append(t.closers, ln)
	t.mu.Unlock()
	return ln, nil
}

// close stops the listeners and waits for the pumps, which end when
// their daemons do: call it after the cluster has stopped.
func (t *tracer) close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	closers := t.closers
	t.closers = nil
	t.mu.Unlock()
	for _, c := range closers {
		_ = c.Close() // nothing to do about a listener that will not close
	}
	t.pumps.Wait()
	t.transport.CloseIdleConnections()
}

// opOf names a request by method and resource class: the first two
// path segments, or three under raidb's /c/{collection}/{verb}.
func opOf(method, path string) string {
	seg := strings.Split(strings.TrimPrefix(path, "/"), "/")
	n := 2
	if seg[0] == "c" {
		n = 3
	}
	if len(seg) > n {
		seg = seg[:n]
	}
	return method + " /" + strings.Join(seg, "/")
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Unwrap lets the reverse proxy reach the real writer's Flush.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// copyBuffers spares the proxy a 32 KiB allocation per request; the
// large trees make hundreds of requests per job.
type copyBuffers struct{ pool sync.Pool }

func (c *copyBuffers) Get() []byte {
	if b, ok := c.pool.Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, 32<<10)
}

func (c *copyBuffers) Put(b []byte) { c.pool.Put(&b) }

// httpEdge opens a listener that forwards to target (host:port),
// streaming both ways, and records one span per request. It returns the
// address callers of this edge should be given.
func (t *tracer) httpEdge(edge string, student int, target string) (string, error) {
	if t == nil {
		return target, nil
	}
	ln, err := t.listen()
	if err != nil {
		return "", err
	}
	rp := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: target})
	rp.Transport = t.transport
	rp.FlushInterval = -1 // write through: a streamed body must not wait in the proxy
	rp.ErrorLog = log.New(io.Discard, "", 0)
	rp.BufferPool = &t.buffers
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		in := &countingBody{ReadCloser: r.Body}
		r.Body = in
		out := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		// Deferred, because the reverse proxy panics with ErrAbortHandler
		// when the caller hangs up the moment it has its answer, and that
		// call was made all the same.
		defer func() {
			t.add(span{
				ID: t.newID(), Job: r.Header.Get("X-RAI-Job-ID"), trace: r.Header.Get("X-RAI-Trace-ID"),
				Edge: edge, Op: opOf(r.Method, r.URL.Path), student: student,
				Start: t.since(start), End: t.since(time.Now()),
				BytesIn: in.n, BytesOut: out.n, Status: out.status,
			})
		}()
		rp.ServeHTTP(out, r)
	})}
	t.mu.Lock()
	t.closers = append(t.closers, srv)
	t.mu.Unlock()
	t.pumps.Add(1)
	go func() {
		defer t.pumps.Done()
		_ = srv.Serve(ln) // returns when close() closes the server
	}()
	return ln.Addr().String(), nil
}

// tcpEdge opens a listener that pumps bytes to and from target and
// records one span per connection.
func (t *tracer) tcpEdge(edge string, student int, target string) (string, error) {
	if t == nil {
		return target, nil
	}
	ln, err := t.listen()
	if err != nil {
		return "", err
	}
	live := t.counter(edge)
	t.pumps.Add(1)
	go func() {
		defer t.pumps.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.pumps.Add(1)
			go func() {
				defer t.pumps.Done()
				t.pump(edge, student, live, conn.(*net.TCPConn), target)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

func (t *tracer) pump(edge string, student int, live *edgeBytes, client *net.TCPConn, target string) {
	defer client.Close()
	start := time.Now()
	live.conns.Add(1)
	s := span{ID: t.newID(), Edge: edge, Op: "conn", student: student, Start: t.since(start)}
	up, err := net.Dial("tcp", target)
	if err != nil {
		s.End, s.Status = t.since(time.Now()), -1
		t.add(s)
		return
	}
	server := up.(*net.TCPConn)
	defer server.Close()
	var in, out int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		out = copyCounting(client, server, &live.out)
	}()
	in = copyCounting(server, client, &live.in)
	<-done
	s.End, s.BytesIn, s.BytesOut = t.since(time.Now()), in, out
	t.add(s)
}

// copyCounting copies src to dst until EOF, then half-closes dst so the
// peer sees the same end of stream the real connection would give it.
func copyCounting(dst, src *net.TCPConn, live *atomic.Int64) int64 {
	var total int64
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
			total += int64(n)
			live.Add(int64(n))
		}
		if rerr != nil {
			break
		}
	}
	_ = dst.CloseWrite() // the peer may already be gone
	return total
}
