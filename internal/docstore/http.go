package docstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"rai/internal/clock"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

// The HTTP service exposes the database as a small JSON-RPC-ish API so a
// standalone raidb daemon can serve workers and instructor tools:
//
//	POST /c/{coll}/insert  {"doc": {...}}                  -> {"id": "..."}
//	POST /c/{coll}/find    {"filter": {...}, "opts": {..}} -> {"docs": [...]}
//	POST /c/{coll}/count   {"filter": {...}}               -> {"n": 3}
//	POST /c/{coll}/update  {"filter": {...}, "update":{}}  -> {"n": 2}
//	POST /c/{coll}/upsert  {"filter": {...}, "update":{}}  -> {"id": "..."}
//	POST /c/{coll}/delete  {"filter": {...}}               -> {"n": 1}
//	GET  /w/{coll}         ndjson stream of WatchEvent ({coll} empty = all)
//	GET  /healthz

// AuthFunc validates credentials attached to a request; nil admits all.
type AuthFunc func(accessKey, signature string, r *http.Request) bool

// Auth header names shared with internal/auth.
const (
	HeaderAccessKey = "X-RAI-Access-Key"
	HeaderSignature = "X-RAI-Signature"
)

type rpcRequest struct {
	Doc    M        `json:"doc,omitempty"`
	Filter M        `json:"filter,omitempty"`
	Update M        `json:"update,omitempty"`
	Opts   FindOpts `json:"opts,omitempty"`
}

type rpcResponse struct {
	ID    string `json:"id,omitempty"`
	N     int    `json:"n,omitempty"`
	Docs  []M    `json:"docs,omitempty"`
	Error string `json:"error,omitempty"`
}

// HandlerOption configures the HTTP layer.
type HandlerOption func(*handlerState)

// WithTelemetry instruments the handler on reg — request counters and
// latency histograms labeled by verb plus an in-flight gauge — and
// mounts GET /metrics.
func WithTelemetry(reg *telemetry.Registry) HandlerOption {
	return func(h *handlerState) {
		h.reg = reg
		h.requests = map[string]*telemetry.Counter{}
		h.latency = map[string]*telemetry.HDRHistogram{}
		for _, verb := range []string{"insert", "find", "count", "update", "upsert", "delete", "other"} {
			h.requests[verb] = reg.Counter("rai_docstore_requests_total", "requests served", telemetry.L("verb", verb))
			h.latency[verb] = reg.Histogram("rai_docstore_request_seconds", "request latency", telemetry.L("verb", verb))
		}
		h.inFlight = reg.Gauge("rai_docstore_requests_in_flight", "requests currently being served")
	}
}

// WithHandlerTracer opens a child span ("docstore upsert", "docstore
// find", ...) for every request arriving with X-RAI-Trace-ID
// propagation headers, so a job's metadata writes appear inside its
// span tree.
func WithHandlerTracer(t *telemetry.Tracer) HandlerOption {
	return func(h *handlerState) { h.tracer = t }
}

// WithHandlerSampler notes the head-sampling verdict arriving on the
// X-RAI-Sampled header, so the server's child spans follow the
// client's decision. Wrap the tracer's span sink with the same
// sampler's SpanSink for the filter to take effect.
func WithHandlerSampler(s *telemetry.Sampler) HandlerOption {
	return func(h *handlerState) { h.sampler = s }
}

type handlerState struct {
	reg      *telemetry.Registry
	tracer   *telemetry.Tracer
	sampler  *telemetry.Sampler
	requests map[string]*telemetry.Counter
	latency  map[string]*telemetry.HDRHistogram
	inFlight *telemetry.Gauge
}

// observe records one request; no-op when telemetry is off.
func (h *handlerState) observe(verb string, start time.Time) {
	if h.reg == nil {
		return
	}
	if h.requests[verb] == nil {
		verb = "other"
	}
	h.requests[verb].Inc()
	h.latency[verb].Observe(clock.Real{}.Now().Sub(start).Seconds())
}

// Handler serves a database (in-memory or journal-backed) over HTTP.
func Handler(db Served, auth AuthFunc, opts ...HandlerOption) http.Handler {
	h := &handlerState{}
	for _, o := range opts {
		o(h)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if h.reg != nil {
		mux.Handle("/metrics", h.reg.Handler())
	}
	mux.HandleFunc("/w/", func(w http.ResponseWriter, r *http.Request) {
		if auth != nil && !auth(r.Header.Get(HeaderAccessKey), r.Header.Get(HeaderSignature), r) {
			writeJSON(w, http.StatusForbidden, rpcResponse{Error: "forbidden"})
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			writeJSON(w, http.StatusInternalServerError, rpcResponse{Error: "streaming unsupported"})
			return
		}
		coll := strings.TrimPrefix(r.URL.Path, "/w/")
		sub := db.Watch(r.Context(), coll)
		defer sub.Close()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		enc := json.NewEncoder(w)
		for ev := range sub.Events() {
			if err := enc.Encode(ev); err != nil {
				return
			}
			fl.Flush()
		}
	})
	mux.HandleFunc("/c/", func(w http.ResponseWriter, r *http.Request) {
		start := clock.Real{}.Now()
		h.inFlight.Add(1)
		defer h.inFlight.Add(-1)
		verb := "other"
		defer func() { h.observe(verb, start) }()
		if sc, jobID := telemetry.ExtractHTTP(r.Header); sc.Valid() && h.tracer != nil {
			h.sampler.Note(sc.TraceID, sc.Sampled)
			span := h.tracer.StartSpan(sc.TraceID, sc.SpanID, "docstore")
			span.SetAttr("path", r.URL.Path)
			if jobID != "" {
				span.SetAttr("job_id", jobID)
			}
			// Name resolves to the verb once parsed below.
			defer func() { span.SetName("docstore " + verb); span.End() }()
		}
		if auth != nil && !auth(r.Header.Get(HeaderAccessKey), r.Header.Get(HeaderSignature), r) {
			writeJSON(w, http.StatusForbidden, rpcResponse{Error: "forbidden"})
			return
		}
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, rpcResponse{Error: "POST only"})
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/c/")
		coll, v, ok := strings.Cut(rest, "/")
		verb = v
		if !ok || coll == "" {
			writeJSON(w, http.StatusBadRequest, rpcResponse{Error: "want /c/{collection}/{verb}"})
			return
		}
		// Decode straight off the wire (bounded) instead of buffering the
		// whole body first; an empty body is a valid empty request.
		var req rpcRequest
		dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
		if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeJSON(w, http.StatusBadRequest, rpcResponse{Error: "bad JSON: " + err.Error()})
			return
		}
		if req.Filter == nil {
			req.Filter = M{}
		}
		switch verb {
		case "insert":
			id, err := db.Insert(r.Context(), coll, req.Doc)
			respond(w, rpcResponse{ID: id}, err)
		case "find":
			docs, err := db.Find(r.Context(), coll, req.Filter, req.Opts)
			respond(w, rpcResponse{Docs: docs}, err)
		case "count":
			n, err := db.Count(r.Context(), coll, req.Filter)
			respond(w, rpcResponse{N: n}, err)
		case "update":
			n, err := db.Update(r.Context(), coll, req.Filter, req.Update)
			respond(w, rpcResponse{N: n}, err)
		case "upsert":
			id, err := db.Upsert(r.Context(), coll, req.Filter, req.Update)
			respond(w, rpcResponse{ID: id}, err)
		case "delete":
			n, err := db.Delete(r.Context(), coll, req.Filter)
			respond(w, rpcResponse{N: n}, err)
		default:
			writeJSON(w, http.StatusNotFound, rpcResponse{Error: "unknown verb " + verb})
		}
	})
	return mux
}

func respond(w http.ResponseWriter, resp rpcResponse, err error) {
	if err == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadFilter), errors.Is(err, ErrBadUpdate),
		errors.Is(err, ErrBadName), errors.Is(err, ErrBadDocument):
		status = http.StatusBadRequest
	case errors.Is(err, ErrDuplicateID):
		status = http.StatusConflict
	}
	writeJSON(w, status, rpcResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// DefaultRequestTimeout bounds each attempt when the policy does not
// set a per-attempt deadline. It replaces the old fixed 30s
// http.Client.Timeout; the caller's ctx can always cut it shorter.
const DefaultRequestTimeout = 30 * time.Second

// Client is an HTTP client for a docstore service, mirroring the DB
// API. Calls run under Policy: transient failures retry with jittered
// backoff — except Insert, which is not idempotent and gets a single
// attempt (a retried insert whose first try actually landed would
// duplicate the document). Update/Upsert/Delete are filter-addressed
// and safe to repeat.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	Sign    func(r *http.Request)
	// Policy governs retries and deadlines; NewClient seeds PerAttempt
	// with DefaultRequestTimeout when unset.
	Policy netx.Policy
}

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithClientPolicy replaces the retry policy.
func WithClientPolicy(p netx.Policy) ClientOption {
	return func(c *Client) { c.Policy = p }
}

// WithClientTransport substitutes the HTTP transport.
func WithClientTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) { c.HTTP.Transport = rt }
}

// NewClient returns a client for the service at baseURL.
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

// call runs one RPC under the retry policy (single attempt when retry
// is false). Each attempt rebuilds the request from the marshaled
// payload; error-response bodies are fully drained so the pooled
// connection is reused.
func (c *Client) call(ctx context.Context, coll, verb string, req rpcRequest, retry bool) (rpcResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return rpcResponse{}, err
	}
	p := c.Policy
	if !retry {
		p.MaxAttempts = 1
	}
	return netx.DoVal(ctx, p, func(ctx context.Context) (rpcResponse, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/c/"+coll+"/"+verb, bytes.NewReader(payload))
		if err != nil {
			return rpcResponse{}, netx.Permanent(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if c.Sign != nil {
			c.Sign(hreq)
		}
		// Propagate the caller's trace so the server's child span joins
		// the same tree.
		telemetry.InjectHTTP(ctx, hreq.Header)
		hresp, err := c.HTTP.Do(hreq)
		if err != nil {
			return rpcResponse{}, err
		}
		defer func() {
			_, _ = io.Copy(io.Discard, io.LimitReader(hresp.Body, 64<<10))
			hresp.Body.Close()
		}()
		var resp rpcResponse
		if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
			return rpcResponse{}, fmt.Errorf("docstore client: bad response: %w", err)
		}
		if resp.Error != "" {
			se := &netx.StatusError{Op: "docstore " + verb, Code: hresp.StatusCode, Msg: resp.Error}
			if hresp.StatusCode == http.StatusNotFound {
				return resp, fmt.Errorf("%w: %w", ErrNotFound, se)
			}
			return resp, se
		}
		return resp, nil
	})
}

// Insert stores a document and returns its id. Inserts are not
// retried (see Client).
func (c *Client) Insert(ctx context.Context, coll string, doc any) (string, error) {
	d, err := normalize(doc)
	if err != nil {
		return "", err
	}
	resp, err := c.call(ctx, coll, "insert", rpcRequest{Doc: d}, false)
	return resp.ID, err
}

// Find runs a filtered query.
func (c *Client) Find(ctx context.Context, coll string, filter M, opts FindOpts) ([]M, error) {
	resp, err := c.call(ctx, coll, "find", rpcRequest{Filter: filter, Opts: opts}, true)
	return resp.Docs, err
}

// FindOne returns the first match or ErrNotFound.
func (c *Client) FindOne(ctx context.Context, coll string, filter M) (M, error) {
	docs, err := c.Find(ctx, coll, filter, FindOpts{Limit: 1})
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, ErrNotFound
	}
	return docs[0], nil
}

// Count counts matches.
func (c *Client) Count(ctx context.Context, coll string, filter M) (int, error) {
	resp, err := c.call(ctx, coll, "count", rpcRequest{Filter: filter}, true)
	return resp.N, err
}

// Update applies an update to all matches.
func (c *Client) Update(ctx context.Context, coll string, filter, update M) (int, error) {
	resp, err := c.call(ctx, coll, "update", rpcRequest{Filter: filter, Update: update}, true)
	return resp.N, err
}

// Upsert updates or inserts and returns the document id.
func (c *Client) Upsert(ctx context.Context, coll string, filter, update M) (string, error) {
	resp, err := c.call(ctx, coll, "upsert", rpcRequest{Filter: filter, Update: update}, true)
	return resp.ID, err
}

// Delete removes matches.
func (c *Client) Delete(ctx context.Context, coll string, filter M) (int, error) {
	resp, err := c.call(ctx, coll, "delete", rpcRequest{Filter: filter}, true)
	return resp.N, err
}

// Watch subscribes to the server's mutation stream for coll ("" = all
// collections). The returned channel closes when ctx ends or the stream
// breaks; callers wanting resilience fall back to polling then, and
// when Watch itself fails. The stream is long-lived, so it runs outside
// the retry policy on the caller's context alone.
func (c *Client) Watch(ctx context.Context, coll string) (<-chan WatchEvent, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/w/"+coll, nil)
	if err != nil {
		return nil, err
	}
	if c.Sign != nil {
		c.Sign(hreq)
	}
	hresp, err := c.HTTP.Do(hreq)
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		var resp rpcResponse
		_ = json.NewDecoder(io.LimitReader(hresp.Body, 64<<10)).Decode(&resp)
		hresp.Body.Close()
		msg := resp.Error
		if msg == "" {
			msg = hresp.Status
		}
		return nil, &netx.StatusError{Op: "docstore watch", Code: hresp.StatusCode, Msg: msg}
	}
	ch := make(chan WatchEvent, 16)
	go func() {
		defer hresp.Body.Close()
		defer close(ch)
		dec := json.NewDecoder(hresp.Body)
		for {
			var ev WatchEvent
			if err := dec.Decode(&ev); err != nil {
				return
			}
			select {
			case ch <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, nil
}

// Store is the database port: DB, PersistentDB and Client all satisfy
// it, so components run embedded or remote.
type Store interface {
	Insert(ctx context.Context, coll string, doc any) (string, error)
	Find(ctx context.Context, coll string, filter M, opts FindOpts) ([]M, error)
	FindOne(ctx context.Context, coll string, filter M) (M, error)
	Count(ctx context.Context, coll string, filter M) (int, error)
	Update(ctx context.Context, coll string, filter, update M) (int, error)
	Upsert(ctx context.Context, coll string, filter, update M) (string, error)
	Delete(ctx context.Context, coll string, filter M) (int, error)
}

// Served is what Handler serves: a Store that streams its own
// mutations (the engines; a Client is the other end of that stream).
type Served interface {
	Store
	Watch(ctx context.Context, coll string) *WatchSub
}

var (
	_ Served = (*DB)(nil)
	_ Served = (*PersistentDB)(nil)
	_ Store  = (*Client)(nil)
)
