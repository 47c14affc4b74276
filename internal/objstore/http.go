package objstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rai/internal/blobstore"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

// AuthFunc validates a request's credentials: it receives the access key
// and the request signature header and reports whether the caller is
// allowed. A nil AuthFunc admits everyone (embedded/simulation use).
type AuthFunc func(accessKey, signature string, r *http.Request) bool

// Auth header names shared with internal/auth.
const (
	HeaderAccessKey = "X-RAI-Access-Key"
	HeaderSignature = "X-RAI-Signature"
)

// MaxObjectBytes bounds one uploaded object (2 GiB, as before — but now
// enforced on the stream, not by buffering the body first).
const MaxObjectBytes = 2 << 30

// Handler serves the store over HTTP:
//
//	PUT    /o/{bucket}/{key}   store (X-RAI-TTL-Seconds optional; body streamed)
//	GET    /o/{bucket}/{key}   fetch (streamed)
//	HEAD   /o/{bucket}/{key}   metadata
//	POST   /cas/manifest/{bucket}/{key}
//	                           hash-verified chunk frames, then a manifest
//	                           stored once every chunk it names is (cas.go)
//	POST   /cas/fetch          the named chunks as one framed stream (cas.go)
//	GET    /healthz            liveness
//
// Any other method on /o/ answers 405, any other path 404.
func Handler(s *Store, auth AuthFunc, opts ...HandlerOption) http.Handler {
	h := &handlerState{}
	for _, o := range opts {
		o(h)
	}
	if h.reg != nil {
		h.reg.GaugeFunc("rai_objstore_used_bytes", "bytes resident across all buckets",
			func() float64 { return float64(s.Used()) })
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/o/", h.instrument(objOp, func(w http.ResponseWriter, r *http.Request) {
		if auth != nil && !auth(r.Header.Get(HeaderAccessKey), r.Header.Get(HeaderSignature), r) {
			http.Error(w, "forbidden", http.StatusForbidden)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/o/")
		bucket, key, ok := strings.Cut(rest, "/")
		if !ok || bucket == "" || key == "" {
			http.Error(w, "want /o/{bucket}/{key}", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodPut:
			ttl, err := ttlHeader(r)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			// The body streams straight into the backend — the server never
			// holds the archive in memory. Crossing the size limit aborts
			// the partial write and answers 413.
			body := http.MaxBytesReader(w, r.Body, MaxObjectBytes)
			info, err := s.put(r.Context(), bucket, key, &countingReader{r: body, c: h.streamIn}, blobstore.PutOptions{TTL: ttl})
			if err != nil {
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					http.Error(w, fmt.Sprintf("object exceeds the %d byte limit", MaxObjectBytes), http.StatusRequestEntityTooLarge)
					return
				}
				writeStoreErr(w, err)
				return
			}
			w.Header().Set("ETag", info.ETag)
			w.WriteHeader(http.StatusCreated)
		case http.MethodGet:
			rc, info, err := s.be.Open(r.Context(), bucket, key)
			if err != nil {
				writeStoreErr(w, err)
				return
			}
			defer rc.Close()
			w.Header().Set("ETag", info.ETag)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
			// A copy error here is a dead client or a vanished file; headers
			// are gone, so the short body (vs Content-Length) is the signal.
			n, _ := io.Copy(w, rc)
			h.streamOut.Add(float64(n))
		case http.MethodHead:
			info, err := s.Head(r.Context(), bucket, key)
			if err != nil {
				writeStoreErr(w, err)
				return
			}
			w.Header().Set("ETag", info.ETag)
			w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
			w.WriteHeader(http.StatusOK)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	}))
	mux.HandleFunc("/cas/", h.instrument(casOp, func(w http.ResponseWriter, r *http.Request) {
		if auth != nil && !auth(r.Header.Get(HeaderAccessKey), r.Header.Get(HeaderSignature), r) {
			http.Error(w, "forbidden", http.StatusForbidden)
			return
		}
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		switch {
		case strings.HasPrefix(r.URL.Path, "/cas/manifest/"):
			h.handleCASManifest(s, w, r)
		case r.URL.Path == "/cas/fetch":
			h.handleCASFetch(s, w, r)
		default:
			http.Error(w, "want /cas/manifest/{bucket}/{key} or /cas/fetch", http.StatusNotFound)
		}
	}))
	return mux
}

// HandlerOption configures the HTTP layer.
type HandlerOption func(*handlerState)

// WithTelemetry instruments the handler on reg — request counters and
// latency histograms labeled by op, transfer byte counters, an
// in-flight gauge, and a resident-bytes gauge. The daemon serves reg
// on its own metrics listener, not on this handler.
func WithTelemetry(reg *telemetry.Registry) HandlerOption {
	return func(h *handlerState) {
		h.reg = reg
		h.requests = map[string]*telemetry.Counter{}
		h.latency = map[string]*telemetry.HDRHistogram{}
		for _, op := range []string{"put", "get", "head", "cas-manifest", "cas-fetch", "other"} {
			h.requests[op] = reg.Counter("rai_objstore_requests_total", "requests served", telemetry.L("op", op))
			h.latency[op] = reg.Histogram("rai_objstore_request_seconds", "request latency", telemetry.L("op", op))
		}
		h.bytesIn = reg.Counter("rai_objstore_bytes_total", "payload bytes transferred", telemetry.L("direction", "in"))
		h.bytesOut = reg.Counter("rai_objstore_bytes_total", "payload bytes transferred", telemetry.L("direction", "out"))
		h.streamIn = reg.Counter("rai_objstore_stream_bytes_total", "object payload bytes moved through the streaming data path", telemetry.L("direction", "in"))
		h.streamOut = reg.Counter("rai_objstore_stream_bytes_total", "object payload bytes moved through the streaming data path", telemetry.L("direction", "out"))
		h.inFlight = reg.Gauge("rai_objstore_requests_in_flight", "requests currently being served")
		h.registerCASMetrics(reg)
	}
}

// WithHandlerTracer opens a child span ("objstore put", "objstore get",
// ...) for every request arriving with X-RAI-Trace-ID propagation
// headers, so uploads and downloads appear inside the job's span tree.
func WithHandlerTracer(t *telemetry.Tracer) HandlerOption {
	return func(h *handlerState) { h.tracer = t }
}

type handlerState struct {
	reg       *telemetry.Registry
	tracer    *telemetry.Tracer
	requests  map[string]*telemetry.Counter
	latency   map[string]*telemetry.HDRHistogram
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
	streamIn  *telemetry.Counter
	streamOut *telemetry.Counter
	inFlight  *telemetry.Gauge

	// rai_cas_* counters (cas.go); nil-safe no-ops without telemetry.
	casHits        *telemetry.Counter
	casMisses      *telemetry.Counter
	casSavedBytes  *telemetry.Counter
	casStored      *telemetry.Counter
	casStoredBytes *telemetry.Counter
}

func objOp(r *http.Request) string {
	switch r.Method {
	case http.MethodPut:
		return "put"
	case http.MethodGet:
		return "get"
	case http.MethodHead:
		return "head"
	}
	return "other"
}

func (h *handlerState) instrument(opOf func(*http.Request) string, next http.HandlerFunc) http.HandlerFunc {
	if h.reg == nil && h.tracer == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rawOp := opOf(r)
		op := rawOp
		if h.requests[op] == nil {
			op = "other" // metric cardinality guard; the span keeps rawOp
		}
		var span *telemetry.Span
		if sc, jobID := telemetry.ExtractHTTP(r.Header); sc.Valid() {
			span = h.tracer.StartSpan(sc.TraceID, sc.SpanID, "objstore "+rawOp)
			span.SetAttr("path", r.URL.Path)
			if jobID != "" {
				span.SetAttr("job_id", jobID)
			}
		}
		start := clock.Real{}.Now()
		h.inFlight.Add(1)
		h.requests[op].Inc()
		if r.ContentLength > 0 {
			h.bytesIn.Add(float64(r.ContentLength))
		}
		cw := &countingWriter{ResponseWriter: w}
		next(cw, r)
		h.bytesOut.Add(float64(cw.n))
		h.latency[op].Observe(clock.Real{}.Now().Sub(start).Seconds())
		h.inFlight.Add(-1)
		span.End()
	}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader feeds a stream-byte counter as the body flows through
// (nil-safe: the counter may be absent when telemetry is off).
type countingReader struct {
	r io.Reader
	c *telemetry.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(float64(n))
	return n, err
}

// headerTTL carries an upload's time to live in whole seconds.
const headerTTL = "X-RAI-TTL-Seconds"

// ttlHeader reads a request's X-RAI-TTL-Seconds; absent, it is zero,
// and the store's default applies.
func ttlHeader(r *http.Request) (time.Duration, error) {
	v := r.Header.Get(headerTTL)
	if v == "" {
		return 0, nil
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs < 0 {
		return 0, errors.New("bad " + headerTTL)
	}
	return time.Duration(secs) * time.Second, nil
}

func writeStoreErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoBucket), errors.Is(err, ErrNoObject):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrBadName), errors.Is(err, blobstore.ErrETag), errors.Is(err, errBadManifest):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, ErrQuota):
		http.Error(w, err.Error(), http.StatusInsufficientStorage)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// DefaultRequestTimeout bounds each attempt when the policy does not
// set its own per-attempt deadline. It replaces the old fixed 60s
// http.Client.Timeout — unlike that one, it is per attempt and the
// caller's ctx can always cut it shorter.
const DefaultRequestTimeout = 60 * time.Second

// Client talks to an objstore HTTP server. Credentials, when set, are
// attached to every request using the internal/auth header scheme.
// Every call runs under Policy: transient failures (connection drops,
// 5xx) are retried with jittered backoff; 4xx and ctx cancellation are
// not. Client is safe for concurrent use.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Sign, when non-nil, is called per request to attach credentials.
	Sign func(r *http.Request)
	// Policy governs retries and deadlines; NewClient seeds PerAttempt
	// with DefaultRequestTimeout when unset.
	Policy netx.Policy
}

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithClientPolicy replaces the retry policy (attempts, backoff,
// deadlines, metrics).
func WithClientPolicy(p netx.Policy) ClientOption {
	return func(c *Client) { c.Policy = p }
}

// WithClientTransport substitutes the HTTP transport (fault injection
// in tests, custom pools in deployments).
func WithClientTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) { c.HTTP.Transport = rt }
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{BaseURL: strings.TrimSuffix(baseURL, "/"), HTTP: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	if c.Policy.PerAttempt <= 0 {
		c.Policy.PerAttempt = DefaultRequestTimeout
	}
	return c
}

// roundTrip runs one signed request under the retry policy. build is
// invoked per attempt so each try gets a fresh body and the attempt's
// deadline. handle consumes a success response; error responses are
// drained so the pooled connection is reused.
func (c *Client) roundTrip(ctx context.Context, op string, okStatus int, build func(ctx context.Context) (*http.Request, error), handle func(*http.Response) error) error {
	return c.roundTripPolicy(ctx, c.Policy, op, okStatus, build, handle)
}

// roundTripPolicy is roundTrip with an explicit policy, for calls whose
// retry shape differs from the client default (unrewindable streams).
func (c *Client) roundTripPolicy(ctx context.Context, policy netx.Policy, op string, okStatus int, build func(ctx context.Context) (*http.Request, error), handle func(*http.Response) error) error {
	return netx.Do(ctx, policy, func(ctx context.Context) error {
		req, err := build(ctx)
		if err != nil {
			return netx.Permanent(err)
		}
		if c.Sign != nil {
			c.Sign(req)
		}
		// Propagate the caller's trace so the server's child span joins
		// the same tree.
		telemetry.InjectHTTP(ctx, req.Header)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode != okStatus {
			return httpError(op, resp)
		}
		if handle == nil {
			drainClose(resp.Body)
			return nil
		}
		defer resp.Body.Close()
		return handle(resp)
	})
}

// Put uploads data to bucket/key with an optional TTL. Thin adapter
// over PutReader for callers already holding the object in memory.
func (c *Client) Put(ctx context.Context, bucket, key string, data []byte, ttl time.Duration) error {
	return c.PutReader(ctx, bucket, key, bytes.NewReader(data), int64(len(data)), ttl)
}

// PutReader uploads the stream r (size bytes, or -1 when unknown) to
// bucket/key. When r is an io.ReadSeeker — a file, a bytes.Reader —
// each retry attempt rewinds it and the full retry policy applies; a
// one-shot stream gets a single attempt, because a half-consumed body
// cannot be replayed.
func (c *Client) PutReader(ctx context.Context, bucket, key string, r io.Reader, size int64, ttl time.Duration) error {
	policy := c.Policy
	seeker, rewindable := r.(io.ReadSeeker)
	if !rewindable {
		policy.MaxAttempts = 1
	}
	return c.roundTripPolicy(ctx, policy, "put", http.StatusCreated, func(ctx context.Context) (*http.Request, error) {
		if rewindable {
			if _, err := seeker.Seek(0, io.SeekStart); err != nil {
				return nil, netx.Permanent(err)
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.objURL(bucket, key), io.NopCloser(r))
		if err != nil {
			return nil, err
		}
		if size >= 0 {
			req.ContentLength = size
		}
		if ttl > 0 {
			req.Header.Set(headerTTL, strconv.FormatInt(int64(ttl/time.Second), 10))
		}
		return req, nil
	}, nil)
}

// Get downloads bucket/key into memory. Thin adapter over GetReader;
// prefer GetReader for archive-sized objects.
func (c *Client) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	rc, size, err := c.GetReader(ctx, bucket, key)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	if size >= 0 {
		data := make([]byte, size)
		if _, err := io.ReadFull(rc, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	//lint:ignore stream []byte adapter by contract; size-unknown fallback, streaming callers use GetReader
	return io.ReadAll(rc)
}

// GetReader streams bucket/key: it returns the response body and the
// advertised size (-1 when unknown). The caller must Close the reader.
// Retries cover connecting and the response header; once the stream is
// handed over, a mid-body failure surfaces as a read error.
func (c *Client) GetReader(ctx context.Context, bucket, key string) (io.ReadCloser, int64, error) {
	// The body outlives the retry loop, so the request deliberately binds
	// to the caller's ctx, not the per-attempt one (which Do cancels as
	// the attempt returns): only the caller's ctx bounds the stream.
	//lint:ignore httpresp the body IS the return value; the caller must Close it
	resp, err := netx.DoVal(ctx, c.Policy, func(context.Context) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.objURL(bucket, key), nil)
		if err != nil {
			return nil, netx.Permanent(err)
		}
		if c.Sign != nil {
			c.Sign(req)
		}
		telemetry.InjectHTTP(ctx, req.Header)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, httpError("get", resp)
		}
		return resp, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return resp.Body, resp.ContentLength, nil
}

func (c *Client) objURL(bucket, key string) string {
	return c.BaseURL + "/o/" + bucket + "/" + key
}

// drainClose consumes what remains of body before closing so the
// keep-alive connection returns to the pool instead of being torn down.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}

// httpError converts an error response into a netx.StatusError (so the
// retry policy can classify it) and drains the body for connection
// reuse. 404s additionally match ErrNoObject via errors.Is; a 400 that
// names a refused chunk is a permanent *RefusedChunkError.
func httpError(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	drainClose(resp.Body)
	se := &netx.StatusError{Op: "objstore " + op, Code: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
	switch hash := resp.Header.Get(headerRefusedChunk); {
	case resp.StatusCode == http.StatusNotFound:
		return fmt.Errorf("%w: %w", ErrNoObject, se)
	case resp.StatusCode == http.StatusBadRequest && cas.ValidHash(hash):
		return netx.Permanent(&RefusedChunkError{Hash: hash, Err: se})
	}
	return se
}
