package netx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rai/internal/telemetry"
)

// fastPolicy keeps test retries sub-millisecond and deterministic.
func fastPolicy() Policy {
	return Policy{
		MaxAttempts: 5,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Rand:        func() float64 { return 0.5 },
	}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("connection reset")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := fastPolicy()
	p.MaxAttempts = 3
	calls := 0
	boom := errors.New("boom")
	err := Do(context.Background(), p, func(context.Context) error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestDoPermanentFailsFast(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return Permanent(errors.New("bad request"))
	})
	if err == nil || calls != 1 {
		t.Fatalf("err = %v, calls = %d (want fail-fast)", err, calls)
	}
	if !IsPermanent(err) {
		t.Error("permanence lost through Do")
	}
}

func TestDoStatusClassification(t *testing.T) {
	for _, tc := range []struct {
		code      int
		wantCalls int
	}{
		{http.StatusBadRequest, 1},          // 4xx: fail fast
		{http.StatusNotFound, 1},            // 4xx: fail fast
		{http.StatusTooManyRequests, 3},     // 429: retry
		{http.StatusInternalServerError, 3}, // 5xx: retry
	} {
		p := fastPolicy()
		p.MaxAttempts = 3
		calls := 0
		err := Do(context.Background(), p, func(context.Context) error {
			calls++
			return &StatusError{Op: "test", Code: tc.code}
		})
		if err == nil {
			t.Fatalf("code %d: nil error", tc.code)
		}
		if calls != tc.wantCalls {
			t.Errorf("code %d: calls = %d, want %d", tc.code, calls, tc.wantCalls)
		}
	}
}

func TestDoCancellationAbortsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 100, BaseDelay: time.Hour, MaxDelay: time.Hour}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Do(ctx, p, func(context.Context) error {
			close(started)
			return errors.New("flaky")
		})
	}()
	<-started
	cancel() // while Do sleeps its (hour-long) backoff
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not abort on cancellation")
	}
}

func TestDoOverallDeadline(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := fastPolicy()
	p.MaxAttempts = 1000
	p.Overall = 20 * time.Millisecond
	p.Metrics = NewMetrics(reg, "test")
	last := errors.New("still down")
	err := Do(context.Background(), p, func(context.Context) error { return last })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !errors.Is(err, last) {
		t.Errorf("last attempt error not preserved: %v", err)
	}
	if v, ok := reg.Value(MetricDeadlines, telemetry.L("component", "test")); !ok || v != 1 {
		t.Errorf("deadline counter = %v, %v", v, ok)
	}
}

func TestDoPerAttemptTimeoutIsRetryable(t *testing.T) {
	p := fastPolicy()
	p.MaxAttempts = 3
	p.PerAttempt = 5 * time.Millisecond
	calls := 0
	err := Do(context.Background(), p, func(ctx context.Context) error {
		calls++
		if calls < 2 {
			<-ctx.Done() // simulate a stuck connection until the attempt deadline
			return ctx.Err()
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err = %v, calls = %d (per-attempt timeout should retry)", err, calls)
	}
}

func TestDelayJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for attempt := 1; attempt <= 10; attempt++ {
		for i := 0; i < 50; i++ {
			d := p.Delay(attempt)
			if d < 0 || d >= time.Second {
				t.Fatalf("attempt %d: delay %v out of [0, 1s)", attempt, d)
			}
		}
	}
	// Deterministic rand pins the exponential envelope: cap doubles each
	// attempt until MaxDelay.
	p.Rand = func() float64 { return 0.999 }
	if d1, d3 := p.Delay(1), p.Delay(3); d3 <= d1 {
		t.Errorf("backoff not growing: attempt1 %v vs attempt3 %v", d1, d3)
	}
	if d := p.Delay(30); d >= time.Second {
		t.Errorf("delay %v not capped by MaxDelay", d)
	}
}

func TestDoValReturnsValueAndCountsRetries(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := fastPolicy()
	p.Metrics = NewMetrics(reg, "test")
	calls := 0
	v, err := DoVal(context.Background(), p, func(context.Context) (int, error) {
		calls++
		if calls < 3 {
			return 0, errors.New("eof")
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("v = %d, err = %v", v, err)
	}
	if n, ok := reg.Value(MetricRetries, telemetry.L("component", "test")); !ok || n != 2 {
		t.Errorf("retries counter = %v, %v, want 2", n, ok)
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.retry()
	m.deadline()
	m.Reconnect()
}

func TestFlakyTransportRetriesThrough(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	ft := &FlakyTransport{Fail: 2}
	client := &http.Client{Transport: ft}
	p := fastPolicy()
	body, err := DoVal(context.Background(), p, func(ctx context.Context) (string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return "", err
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	})
	if err != nil || body != "ok" {
		t.Fatalf("body = %q, err = %v", body, err)
	}
	if ft.Attempts() != 3 {
		t.Errorf("attempts = %d, want 3 (2 dropped + 1 served)", ft.Attempts())
	}
}

// TestFlakyTransportCutsMidBody: with CutAfter the faulted requests are
// served, but their bodies break part-way; the retry reads a whole one.
func TestFlakyTransportCutsMidBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "a body of some length")
	}))
	defer srv.Close()
	ft := &FlakyTransport{Fail: 1, CutAfter: 6}
	client := &http.Client{Transport: ft}
	var partial []string
	body, err := DoVal(context.Background(), fastPolicy(), func(ctx context.Context) (string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return "", err
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			partial = append(partial, string(b))
		}
		return string(b), err
	})
	if err != nil || body != "a body of some length" {
		t.Fatalf("body = %q, err = %v", body, err)
	}
	if len(partial) != 1 || partial[0] != "a body" || ft.Attempts() != 2 {
		t.Errorf("cut attempts read %q over %d attempts, want [\"a body\"] over 2", partial, ft.Attempts())
	}
}

func TestFlakyListenerDropsThenServes(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &FlakyListener{Listener: inner, Drop: 2}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "alive")
	})}
	go srv.Serve(fl)
	defer srv.Close()

	// Transport without keep-alive reuse so each attempt dials fresh.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	p := fastPolicy()
	body, err := DoVal(context.Background(), p, func(ctx context.Context) (string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+inner.Addr().String(), nil)
		if err != nil {
			return "", err
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	})
	if err != nil || body != "alive" {
		t.Fatalf("body = %q, err = %v (accepted %d)", body, err, fl.Accepted())
	}
	if fl.Accepted() < 3 {
		t.Errorf("accepted = %d, want >= 3", fl.Accepted())
	}
}

func TestStatusErrorMessage(t *testing.T) {
	e := &StatusError{Op: "objstore put", Code: 507, Msg: "quota exceeded"}
	for _, want := range []string{"objstore put", "507", "quota exceeded"} {
		if !strings.Contains(e.Error(), want) {
			t.Errorf("message %q missing %q", e.Error(), want)
		}
	}
	if (&StatusError{Op: "x", Code: 404}).Temporary() {
		t.Error("404 classified temporary")
	}
	if !(&StatusError{Op: "x", Code: 503}).Temporary() {
		t.Error("503 classified permanent")
	}
}
