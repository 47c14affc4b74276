package telemetry

// Liveness and readiness endpoints for every daemon's metrics mux,
// complementing the ready-file handshake: the file tells a supervisor
// the process booted once; /readyz tells a load balancer (or the bench
// harness) whether the process is accepting work *right now*. The
// distinction matters during graceful drain — a draining daemon is
// alive (don't kill it harder) but not ready (stop routing to it).

import (
	"net/http"
	"sync/atomic"
)

// Health is a daemon's liveness/readiness state. The zero value is
// alive but not ready; daemons flip SetReady(true) once serving and
// SetReady(false) when drain begins. All methods are nil-safe.
type Health struct {
	ready atomic.Bool
}

// NewHealth returns a not-yet-ready Health.
func NewHealth() *Health { return &Health{} }

// SetReady flips the readiness state.
func (h *Health) SetReady(ready bool) {
	if h == nil {
		return
	}
	h.ready.Store(ready)
}

// Ready reports the current readiness state.
func (h *Health) Ready() bool {
	if h == nil {
		return false
	}
	return h.ready.Load()
}

// Mount registers GET /healthz (200 while the process runs — liveness
// is the ability to answer at all) and GET /readyz (200 "ready" or
// 503 "draining") on mux; any other method is answered 405.
func (h *Health) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !h.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("draining\n"))
			return
		}
		_, _ = w.Write([]byte("ready\n"))
	})
}
