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
//	POST /c/{coll}/update  {"filter": {...}, "update":{}}  -> {"n": 2}
//	POST /c/{coll}/upsert  {"filter": {...}, "update":{}}  -> {"id": "..."}
//	POST /c/{coll}/delete  {"filter": {...}}               -> {"n": 1}
//	POST /bulk             {"ops": [{"coll": "...", "filter": {...},
//	                        "update": {...}}, ...]}         -> {"ids": [...]}
//	GET  /healthz
//
// Any other verb answers 404 "unknown verb".

type rpcRequest struct {
	Doc    M        `json:"doc,omitempty"`
	Filter M        `json:"filter,omitempty"`
	Update M        `json:"update,omitempty"`
	Opts   FindOpts `json:"opts,omitempty"`
	Ops    []Upsert `json:"ops,omitempty"`
}

type rpcResponse struct {
	ID    string   `json:"id,omitempty"`
	IDs   []string `json:"ids,omitempty"`
	N     int      `json:"n,omitempty"`
	Docs  []M      `json:"docs,omitempty"`
	Error string   `json:"error,omitempty"`
}

// HandlerOption configures the HTTP layer.
type HandlerOption func(*handlerState)

// WithTelemetry instruments the handler on reg — request counters and
// latency histograms labeled by verb plus an in-flight gauge. The
// daemon serves reg on its own metrics listener, not on this handler.
func WithTelemetry(reg *telemetry.Registry) HandlerOption {
	return func(h *handlerState) {
		h.reg = reg
		h.requests = map[string]*telemetry.Counter{}
		h.latency = map[string]*telemetry.HDRHistogram{}
		for _, verb := range []string{"insert", "find", "update", "upsert", "delete", "bulk", "other"} {
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

type handlerState struct {
	reg      *telemetry.Registry
	tracer   *telemetry.Tracer
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

// Handler serves a database over HTTP.
func Handler(db Store, opts ...HandlerOption) http.Handler {
	h := &handlerState{}
	for _, o := range opts {
		o(h)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	rpc := func(w http.ResponseWriter, r *http.Request) {
		start := clock.Real{}.Now()
		h.inFlight.Add(1)
		defer h.inFlight.Add(-1)
		verb := "other"
		defer func() { h.observe(verb, start) }()
		if sc, jobID := telemetry.ExtractHTTP(r.Header); sc.Valid() && h.tracer != nil {
			span := h.tracer.StartSpan(sc.TraceID, sc.SpanID, "docstore")
			span.SetAttr("path", r.URL.Path)
			if jobID != "" {
				span.SetAttr("job_id", jobID)
			}
			// Name resolves to the verb once parsed below.
			defer func() { span.SetName("docstore " + verb); span.End() }()
		}
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, rpcResponse{Error: "POST only"})
			return
		}
		coll, v, ok := route(r.URL.Path)
		verb = v
		if !ok {
			writeJSON(w, http.StatusBadRequest, rpcResponse{Error: "want /c/{collection}/{verb} or /bulk"})
			return
		}
		// Decode straight off the wire (bounded) instead of buffering the
		// whole body first; an empty body is a valid empty request. A
		// field the request does not have ("skip", say) is refused, not
		// ignored.
		var req rpcRequest
		dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
		dec.DisallowUnknownFields()
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
		case "update":
			n, err := db.Update(r.Context(), coll, req.Filter, req.Update)
			respond(w, rpcResponse{N: n}, err)
		case "upsert":
			id, err := db.Upsert(r.Context(), coll, req.Filter, req.Update)
			respond(w, rpcResponse{ID: id}, err)
		case "delete":
			n, err := db.Delete(r.Context(), coll, req.Filter)
			respond(w, rpcResponse{N: n}, err)
		case "bulk":
			ids, err := db.UpsertMany(r.Context(), req.Ops)
			respond(w, rpcResponse{IDs: ids}, err)
		default:
			writeJSON(w, http.StatusNotFound, rpcResponse{Error: "unknown verb " + verb})
		}
	}
	mux.HandleFunc("/c/", rpc)
	mux.HandleFunc("/bulk", rpc)
	return mux
}

// route splits an RPC path into its collection and verb: /bulk, whose
// ops name their own collections, or /c/{coll}/{verb} for any other
// verb.
func route(path string) (coll, verb string, ok bool) {
	if path == "/bulk" {
		return "", "bulk", true
	}
	coll, verb, ok = strings.Cut(strings.TrimPrefix(path, "/c/"), "/")
	return coll, verb, ok && coll != "" && verb != "bulk"
}

// respond writes resp, with err's text and status when err is set (a
// bulk request that stopped part way still reports the ids applied).
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
	resp.Error = err.Error()
	writeJSON(w, status, resp)
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
// duplicate the document). Update/Upsert/UpsertMany/Delete are
// filter-addressed and safe to repeat.
type Client struct {
	BaseURL string
	HTTP    *http.Client
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
// is false) at /c/{coll}/{verb}, or at /bulk. Each attempt rebuilds the
// request from the marshaled payload; error-response bodies are fully
// drained so the pooled connection is reused.
func (c *Client) call(ctx context.Context, coll, verb string, req rpcRequest, retry bool) (rpcResponse, error) {
	path := "/c/" + coll + "/" + verb
	if verb == "bulk" {
		path = "/bulk"
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return rpcResponse{}, err
	}
	p := c.Policy
	if !retry {
		p.MaxAttempts = 1
	}
	return netx.DoVal(ctx, p, func(ctx context.Context) (rpcResponse, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(payload))
		if err != nil {
			return rpcResponse{}, netx.Permanent(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
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

// UpsertMany sends ops as one bulk request. Upserts are filter-addressed,
// so the request retries under Policy like Upsert.
func (c *Client) UpsertMany(ctx context.Context, ops []Upsert) ([]string, error) {
	resp, err := c.call(ctx, "", "bulk", rpcRequest{Ops: ops}, true)
	return resp.IDs, err
}

// Delete removes matches.
func (c *Client) Delete(ctx context.Context, coll string, filter M) (int, error) {
	resp, err := c.call(ctx, coll, "delete", rpcRequest{Filter: filter}, true)
	return resp.N, err
}

// Store is the database port: DB and Client both satisfy it, so
// components run embedded or remote.
type Store interface {
	Insert(ctx context.Context, coll string, doc any) (string, error)
	Find(ctx context.Context, coll string, filter M, opts FindOpts) ([]M, error)
	FindOne(ctx context.Context, coll string, filter M) (M, error)
	Update(ctx context.Context, coll string, filter, update M) (int, error)
	Upsert(ctx context.Context, coll string, filter, update M) (string, error)
	// UpsertMany applies ops in order, each as Upsert would, in one
	// round trip and one critical section (see DB.UpsertMany).
	UpsertMany(ctx context.Context, ops []Upsert) ([]string, error)
	Delete(ctx context.Context, coll string, filter M) (int, error)
}

var (
	_ Store = (*DB)(nil)
	_ Store = (*Client)(nil)
)
