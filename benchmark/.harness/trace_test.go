package main

import (
	"bytes"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestOpOf(t *testing.T) {
	for in, want := range map[string]string{
		"GET /o/rai-cas/sha256/ab/abcdef":     "GET /o/rai-cas",
		"POST /cas/negotiate":                 "POST /cas/negotiate",
		"POST /c/jobs/find":                   "POST /c/jobs/find",
		"POST /c/traces/upsert":               "POST /c/traces/upsert",
		"GET /caps":                           "GET /caps",
		"PUT /o/rai-builds/u/job/build.tar.b": "PUT /o/rai-builds",
	} {
		method, path, _ := strings.Cut(in, " ")
		if got := opOf(method, path); got != want {
			t.Errorf("opOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHTTPEdgeCountsExactly(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/missing" {
			http.Error(w, "no", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write(bytes.Repeat([]byte("x"), 2*len(body)+5))
	}))
	defer backend.Close()
	tr := newTracer(time.Now())
	defer tr.close()
	addr, err := tr.httpEdge("raifs.from_rai", 3, strings.TrimPrefix(backend.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}

	sent := []int{0, 1, 1000, 70000}
	for _, n := range sent {
		req, _ := http.NewRequest(http.MethodPut, "http://"+addr+"/o/bucket/key/deeper", bytes.NewReader(make([]byte, n)))
		req.Header.Set("X-RAI-Job-ID", "job-7")
		req.Header.Set("X-RAI-Trace-ID", "trace-7")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || len(got) != 2*n+5 {
			t.Fatalf("through the proxy: status %d, %d bytes; want 201, %d", resp.StatusCode, len(got), 2*n+5)
		}
	}
	resp, err := http.Get("http://" + addr + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// A span is added when its handler returns, which may be a moment
	// after the caller has the whole answer.
	var spans []span
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if spans = tr.snapshot(); len(spans) >= len(sent)+1 {
			break
		}
	}
	if len(spans) != len(sent)+1 {
		t.Fatalf("%d spans for %d requests", len(spans), len(sent)+1)
	}
	for i, n := range sent {
		s := spans[i]
		if s.BytesIn != int64(n) || s.BytesOut != int64(2*n+5) || s.Status != 201 ||
			s.Op != "PUT /o/bucket" || s.Job != "job-7" || s.trace != "trace-7" ||
			s.Edge != "raifs.from_rai" || s.student != 3 || s.End < s.Start {
			t.Errorf("span %d = %+v", i, s)
		}
	}
	if last := spans[len(sent)]; last.Status != 404 || last.Op != "GET /missing" || last.Job != "" {
		t.Errorf("error span = %+v", last)
	}
}

// A streamed response must reach the caller while the daemon is still
// writing it; a proxy that buffered would deadlock this test.
func TestHTTPEdgeStreams(t *testing.T) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "first\n")
		w.(http.Flusher).Flush()
		<-release
		_, _ = io.WriteString(w, "second\n")
	}))
	defer backend.Close()
	tr := newTracer(time.Now())
	defer tr.close()
	addr, err := tr.httpEdge("raidb.from_collector", -1, strings.TrimPrefix(backend.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/w/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 6)
		_, _ = io.ReadFull(resp.Body, buf)
		got <- string(buf)
	}()
	select {
	case s := <-got:
		if s != "first\n" {
			t.Errorf("first chunk = %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Error("the first chunk did not arrive while the handler was still running: the proxy buffers")
	}
	close(release)
	rest, _ := io.ReadAll(resp.Body)
	if string(rest) != "second\n" {
		t.Errorf("rest = %q", rest)
	}
}

// The pump must carry every byte both ways and pass a half-close on:
// the server here answers only after it has seen the client's EOF.
func TestTCPEdgePreservesBytesAndHalfClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		data, _ := io.ReadAll(conn) // returns at the client's half-close
		for i := range data {
			data[i] ^= 0xff
		}
		_, _ = conn.Write(data)
	}()
	tr := newTracer(time.Now())
	addr, err := tr.tcpEdge("brokerd.from_rai", 1, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	back, err := io.ReadAll(conn)
	conn.Close()
	if err != nil || len(back) != len(payload) {
		t.Fatalf("read %d bytes back (%v), want %d", len(back), err, len(payload))
	}
	for i := range back {
		if back[i] != payload[i]^0xff {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	tr.close() // waits for the pump, so the span is in
	spans := tr.snapshot()
	if len(spans) != 1 || spans[0].BytesIn != int64(len(payload)) || spans[0].BytesOut != int64(len(payload)) ||
		spans[0].Op != "conn" || spans[0].student != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	total, conns := tr.edgeTotals()
	if total["brokerd.from_rai"] != int64(2*len(payload)) || conns["brokerd.from_rai"] != 1 {
		t.Errorf("live counters: %v bytes, %v conns", total, conns)
	}
}

func TestNilTracerHandsOutTheRealAddress(t *testing.T) {
	var tr *tracer
	if addr, err := tr.httpEdge("raifs.from_rai", 0, "127.0.0.1:7401"); err != nil || addr != "127.0.0.1:7401" {
		t.Errorf("httpEdge = %q, %v", addr, err)
	}
	if addr, err := tr.tcpEdge("brokerd.from_rai", 0, "127.0.0.1:7400"); err != nil || addr != "127.0.0.1:7400" {
		t.Errorf("tcpEdge = %q, %v", addr, err)
	}
	tr.close()
}

// One synthetic job, whose spans are placed by hand: the four blocking
// intervals must sum to its latency and the worker's self time must be
// what its calls leave uncovered.
func TestBlockingPathSumsToLatency(t *testing.T) {
	jobs := []job{{Student: 0, Due: 10.0, Spawn: 10.0, Exit: 10.100, ID: "j1", OK: true, Span: 99}}
	spans := []span{
		// rai's upload on its own listener, untagged: joined by student and time.
		{ID: 1, Edge: "raifs.from_rai", Op: "POST /cas/negotiate", Start: 10.010, End: 10.020, BytesIn: 500, student: 0},
		{ID: 2, Edge: "raifs.from_rai", Op: "PUT /o/rai-uploads", Start: 10.020, End: 10.030, BytesIn: 1500, student: 0},
		// the rate-limit query carries no job id: it stays in the gap.
		{ID: 3, Edge: "raidb.from_raiworker", Op: "POST /c/jobs/find", Start: 10.035, End: 10.038, student: -1},
		{ID: 4, Edge: "raidb.from_raiworker", Op: "POST /c/jobs/upsert", Job: "j1", trace: "t1", Start: 10.040, End: 10.045, student: -1},
		// two overlapping chunk fetches, one joined only through its trace id.
		{ID: 5, Edge: "raifs.from_raiworker", Op: "GET /o/rai-cas", Job: "j1", Start: 10.050, End: 10.060, BytesOut: 4000, student: -1},
		{ID: 6, Edge: "raifs.from_raiworker", Op: "GET /o/rai-cas", trace: "t1", Start: 10.055, End: 10.065, BytesOut: 4000, student: -1},
		{ID: 7, Edge: "raidb.from_raiworker", Op: "POST /c/jobs/upsert", Job: "j1", Start: 10.085, End: 10.090, student: -1},
		// the collector persists after the window has closed.
		{ID: 8, Edge: "raidb.from_collector", Op: "POST /c/traces/upsert", Start: 10.5, End: 11.25, Status: 500, student: -1},
	}
	assignJobs(spans, jobs)
	for _, id := range []int{0, 1, 3, 4, 5, 6} {
		if spans[id].Job != "j1" || spans[id].Parent != 99 {
			t.Errorf("span %d not joined to the job: %+v", spans[id].ID, spans[id])
		}
	}
	if spans[2].Job != "" {
		t.Errorf("the untagged find was joined to %q", spans[2].Job)
	}
	res := &roundResult{WindowS: 1, WindowStart: 10, Jobs: jobs, Spans: spans,
		EdgeBytes: map[string]int64{"brokerd.from_rai": 700, "brokerd.from_raifs": 200, "brokerd.from_raiworker": 100},
		EdgeConns: map[string]int64{"brokerd.from_rai": 2}}
	m := traceLayers(res)
	near := func(name string, want float64) {
		t.Helper()
		if got := m[name]; math.Abs(got-want) > 1e-6 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("rai.upload_phase_ms_p50", 30)
	near("brokerd.dispatch_gap_ms_p50", 10)
	near("raiworker.service_ms_p50", 50)
	near("rai.exit_tail_ms_p50", 10)
	near("raiworker.raifs_busy_ms_per_job", 15) // 10.050-10.065, overlap counted once
	near("raiworker.raidb_busy_ms_per_job", 10)
	near("raiworker.self_ms_per_job", 25)
	near("raifs.from_rai.requests_per_job", 2)
	near("raifs.from_rai.bytes_in_per_job", 2000)
	near("raifs.chunk_gets_per_job", 2)
	near("raifs.from_raiworker.bytes_out_per_job", 8000)
	near("raidb.from_raiworker.requests_per_job", 3)
	near("raidb.find_ms_p50", 3)
	near("raidb.upsert_ms_p50", 5)
	near("raidb.errors_per_job", 1)
	near("raidb.from_collector.busy_ms_per_job", 750)
	near("collector.drain_s", 0.25)
	near("brokerd.bytes_per_job", 1000)
	near("brokerd.conns_per_job", 2)
	near("brokerd.telemetry_bytes_per_job", 200)
	if sum := m["rai.upload_phase_ms_p50"] + m["brokerd.dispatch_gap_ms_p50"] + m["raiworker.service_ms_p50"] + m["rai.exit_tail_ms_p50"]; math.Abs(sum-jobs[0].latencyMS()) > 1e-6 {
		t.Errorf("the blocking path sums to %v ms, the job took %v ms", sum, jobs[0].latencyMS())
	}
}
