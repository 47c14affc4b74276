package telemetry

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rai/internal/clock"
)

// batchSink is a ShipFunc capturing every published batch.
type batchSink struct {
	mu      sync.Mutex
	batches []*Batch
}

func (s *batchSink) ship(_ context.Context, b *Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, b)
	return nil
}

func (s *batchSink) counts() (batches, spans, events int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.batches {
		spans += len(b.Spans)
		events += len(b.Events)
	}
	return len(s.batches), spans, events
}

// exportCounts reads one of the exporter's counters (dropped or
// shipped) off reg, by kind.
func exportCounts(reg *Registry, name string) (spans, events float64) {
	spans, _ = reg.Value(name, L("kind", "span"))
	events, _ = reg.Value(name, L("kind", "event"))
	return spans, events
}

func TestExporterBatchesAndShips(t *testing.T) {
	var sink batchSink
	reg := NewRegistry()
	e := NewExporter(context.Background(), "svc", sink.ship, WithExportMetrics(reg))

	for i := 0; i < 3; i++ {
		e.ExportSpan(SpanData{TraceID: "t1", SpanID: "s1", Name: "work"})
	}
	e.ExportEvent(Event{Level: "info", Msg: "hello"})
	e.Close()

	batches, spans, events := sink.counts()
	if batches == 0 || spans != 3 || events != 1 {
		t.Fatalf("shipped batches=%d spans=%d events=%d, want >=1/3/1", batches, spans, events)
	}
	sink.mu.Lock()
	svc := sink.batches[0].Service
	sink.mu.Unlock()
	if svc != "svc" {
		t.Errorf("batch service = %q, want svc", svc)
	}
	if ds, de := exportCounts(reg, "rai_telemetry_dropped_total"); ds != 0 || de != 0 {
		t.Errorf("dropped = %v/%v, want 0/0", ds, de)
	}
	if ss, se := exportCounts(reg, "rai_telemetry_shipped_total"); ss != 3 || se != 1 {
		t.Errorf("shipped = %v/%v, want 3/1", ss, se)
	}
}

// TestExporterBackpressureNeverBlocks wedges the ship function and
// floods the exporter far past its buffer: every Export call must
// return immediately, with the overflow counted as drops — never
// delivered late, never blocking the caller.
func TestExporterBackpressureNeverBlocks(t *testing.T) {
	gate := make(chan struct{})
	blocked := make(chan struct{}, 1)
	ship := func(ctx context.Context, b *Batch) error {
		select {
		case blocked <- struct{}{}:
		default:
		}
		<-gate // wedged until the test releases it
		return nil
	}
	reg := NewRegistry()
	e := NewExporter(context.Background(), "svc", ship,
		WithExportMetrics(reg),
		WithExportQueue(4),
		WithExportBatch(1),                 // first record triggers the wedged publish
		WithExportInterval(time.Hour),      // timer never fires during the test
		WithExportShipTimeout(time.Minute)) // ctx deadline must not unwedge ship

	e.ExportSpan(SpanData{Name: "first"})
	<-blocked // publisher is now stuck inside ship

	const flood = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < flood; i++ {
			e.ExportSpan(SpanData{Name: "span"})
			e.ExportEvent(Event{Msg: "event"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Export blocked while the ship function was wedged")
	}
	ds, de := exportCounts(reg, "rai_telemetry_dropped_total")
	if ds+de == 0 {
		t.Fatalf("no drops recorded after flooding a wedged exporter (spans=%v events=%v)", ds, de)
	}
	if ds+de > flood*2 {
		t.Fatalf("dropped %v records, more than the %d exported", ds+de, flood*2)
	}
	close(gate)
	e.Close()

	// After Close, records are dropped (and counted), not delivered.
	before, _ := exportCounts(reg, "rai_telemetry_dropped_total")
	e.ExportSpan(SpanData{Name: "late"})
	if after, _ := exportCounts(reg, "rai_telemetry_dropped_total"); after != before+1 {
		t.Errorf("post-Close export: dropped went %v -> %v, want +1", before, after)
	}
}

// TestExporterFlushIntervalVirtualClock proves partial batches flush on
// the injected clock, keeping simulations deterministic.
func TestExporterFlushIntervalVirtualClock(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2016, 11, 28, 9, 0, 0, 0, time.UTC))
	var sink batchSink
	e := NewExporter(context.Background(), "svc", sink.ship,
		WithExportClock(vc),
		WithExportInterval(10*time.Second),
		WithExportBatch(1000)) // size threshold never reached
	defer e.Close()

	e.ExportSpan(SpanData{Name: "lonely"})
	// Wait until the run loop has both armed the timer and consumed the
	// record, then fire the interval.
	deadline := time.Now().Add(5 * time.Second)
	for vc.PendingTimers() == 0 || len(e.ch) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("exporter never armed its flush timer")
		}
		time.Sleep(time.Millisecond)
	}
	vc.Advance(10 * time.Second)
	for {
		if _, spans, _ := sink.counts(); spans == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partial batch never flushed on the virtual clock")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExporterShipFailureCounted(t *testing.T) {
	reg := NewRegistry()
	e := NewExporter(context.Background(), "svc", func(context.Context, *Batch) error { return errors.New("broker down") },
		WithExportMetrics(reg))
	e.ExportSpan(SpanData{Name: "doomed"})
	e.Close()
	if ss, se := exportCounts(reg, "rai_telemetry_shipped_total"); ss != 0 || se != 0 {
		t.Errorf("shipped = %v/%v despite ship failure", ss, se)
	}
	if got, ok := reg.Value("rai_telemetry_ship_failures_total"); !ok || got < 1 {
		t.Errorf("rai_telemetry_ship_failures_total = %v (ok=%v), want >= 1", got, ok)
	}
}

func TestNilExporter(t *testing.T) {
	var e *Exporter
	e.ExportSpan(SpanData{Name: "x"}) // must not panic
	e.ExportEvent(Event{Msg: "x"})
	e.Close()
}

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	in := &Batch{
		Service: "worker",
		Spans: []SpanData{{
			TraceID: "t1", SpanID: "s2", ParentID: "s1", Name: "build",
			Start: time.Date(2016, 11, 28, 9, 0, 0, 0, time.UTC),
			End:   time.Date(2016, 11, 28, 9, 0, 5, 0, time.UTC),
			Attrs: map[string]string{"job_id": "j1"},
		}},
		Events: []Event{{
			Time:  time.Date(2016, 11, 28, 9, 0, 1, 0, time.UTC),
			Level: "warn", Service: "worker", Msg: "slow build",
			TraceID: "t1", SpanID: "s2", JobID: "j1",
		}},
	}
	out, err := DecodeBatch(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 1 || len(out.Events) != 1 {
		t.Fatalf("round trip lost records: %+v", out)
	}
	if s := out.Spans[0]; s.Name != "build" || s.TraceID != "t1" || s.ParentID != "s1" ||
		!s.Start.Equal(in.Spans[0].Start) || s.Attrs["job_id"] != "j1" {
		t.Errorf("span round trip = %+v", s)
	}
	if out.Events[0].Msg != "slow build" || out.Events[0].Level != "warn" {
		t.Errorf("event round trip = %+v", out.Events[0])
	}
	if _, err := DecodeBatch([]byte("not json")); err == nil {
		t.Error("DecodeBatch accepted garbage")
	}
}

// FuzzDecodeBatch: any client can publish on the telemetry route, so
// the collector decodes bytes it does not control. Whatever DecodeBatch
// accepts must re-encode without panicking (Encode panics on a batch it
// cannot marshal), and decoding is a fixed point: the re-encoded batch
// decodes to one that encodes to the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	t0 := time.Date(2016, 11, 28, 9, 0, 0, 0, time.UTC)
	f.Add((&Batch{Service: "raiworker",
		Spans: []SpanData{{TraceID: "t1", SpanID: "s1", Name: "job", Start: t0, End: t0.Add(time.Second),
			Attrs: map[string]string{"job_id": "j1", "a.b": "$set"}}},
		Events: []Event{{Time: t0, Level: "info", Msg: "job dequeued", TraceID: "t1", SpanID: "s1", JobID: "j1"}},
	}).Encode())
	f.Add([]byte(`{"service":"x","spans":[{"start":"9999-12-31T23:59:59-23:59","end":"0000-01-01T00:00:00Z"}]}`))
	f.Add([]byte(`{"spans":null,"events":[{"ts":"2016-11-28T09:00:00.123456789+05:30","attrs":{"":""}}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := DecodeBatch(raw)
		if err != nil {
			return
		}
		enc := b.Encode()
		again, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v\n%s", err, enc)
		}
		if enc2 := again.Encode(); string(enc2) != string(enc) {
			t.Fatalf("decode is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
