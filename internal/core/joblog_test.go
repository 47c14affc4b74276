package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"rai/internal/broker"
	"rai/internal/build"
	"rai/internal/clock"
	"rai/internal/cnn"
	"rai/internal/project"
)

// devSmallBuild is the build file of the benchmark's dev_small
// workload: a 4 KB project built and run on the small dataset.
func devSmallBuild(t *testing.T) *build.Spec {
	t.Helper()
	spec, err := build.Parse([]byte(`rai:
  version: 0.1
  image: webgpu/rai:root
  commands:
    build:
      - echo "Building project"
      - cmake /src
      - make
      - ./ece408 /data/test10.hdf5 /data/model.hdf5
`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// logRecorder is a queue that keeps what is published on log topics, in
// order, passing the rest (and, when wrapping, log messages too) to the
// queue it wraps.
type logRecorder struct {
	broker.Queue // nil unless wrapping: Subscribe goes to it
	mu           sync.Mutex
	msgs         []LogMessage
}

func (r *logRecorder) Publish(ctx context.Context, topic string, body []byte) (uint64, error) {
	if !strings.HasPrefix(topic, "log_") {
		return r.Queue.Publish(ctx, topic, body)
	}
	var lm LogMessage
	if err := json.Unmarshal(body, &lm); err != nil {
		return 0, err
	}
	if len(body) > LogBatchBytes*6+1024 {
		return 0, fmt.Errorf("log message of %d bytes", len(body))
	}
	r.mu.Lock()
	r.msgs = append(r.msgs, lm)
	r.mu.Unlock()
	if r.Queue == nil {
		return 0, nil
	}
	return r.Queue.Publish(ctx, topic, body)
}

// messages returns a copy of what has been published so far.
func (r *logRecorder) messages() []LogMessage {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]LogMessage(nil), r.msgs...)
}

// waitFor polls until at least n messages are on record.
func (r *logRecorder) waitFor(t *testing.T, n int) []LogMessage {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		msgs := r.messages()
		if len(msgs) >= n || time.Now().After(deadline) {
			return msgs
		}
		time.Sleep(time.Millisecond)
	}
}

// newTestLog is a job log over a recorder on a virtual clock.
func newTestLog() (*jobLog, *logRecorder, *clock.Virtual) {
	rec := &logRecorder{}
	vc := clock.NewVirtual(epoch)
	return newJobLog(context.Background(), rec, vc, "job-1"), rec, vc
}

// text joins what a client would print from msgs.
func text(msgs []LogMessage) string {
	var b []byte
	for _, lm := range msgs {
		b, _ = lm.appendText(b)
	}
	return string(b)
}

func TestLogPipe(t *testing.T) {
	l, rec, _ := newTestLog()
	defer l.close()
	stdout := &logPipe{log: l, kind: LogStdout}
	stdout.Write([]byte("first li"))
	stdout.Write([]byte("ne\nsecond line\npartial"))
	stdout.Flush()
	l.send(&LogMessage{Kind: LogEnd, Status: StatusSucceeded})
	msgs := rec.messages()
	if len(msgs) != 2 || msgs[0].Kind != LogOutput || msgs[1].Kind != LogEnd {
		t.Fatalf("messages = %+v", msgs)
	}
	want := []LogLine{{LogStdout, "first line", false}, {LogStdout, "second line", false}, {LogStdout, "partial", false}}
	if fmt.Sprint(msgs[0].Lines) != fmt.Sprint(want) {
		t.Fatalf("lines = %+v", msgs[0].Lines)
	}
	if stdout.Bytes() != int64(len("first line\nsecond line\npartial")) {
		t.Errorf("Bytes = %d", stdout.Bytes())
	}
}

// TestJobLogKeepsKindsAndOrder: stdout, stderr and system lines share
// one batch in the order they were completed, each with its kind.
func TestJobLogKeepsKindsAndOrder(t *testing.T) {
	l, rec, _ := newTestLog()
	defer l.close()
	stdout, stderr := &logPipe{log: l, kind: LogStdout}, &logPipe{log: l, kind: LogStderr}
	l.systemf("$ %s", "make")
	stdout.Write([]byte("out 1\nout "))
	stderr.Write([]byte("err 1\n"))
	stdout.Write([]byte("2\n"))
	stderr.Write([]byte("no newline"))
	stdout.Flush()
	stderr.Flush()
	l.send(&LogMessage{Kind: LogEnd})
	msgs := rec.messages()
	want := []LogLine{{LogSystem, "$ make", false}, {LogStdout, "out 1", false}, {LogStderr, "err 1", false},
		{LogStdout, "out 2", false}, {LogStderr, "no newline", false}}
	if len(msgs) != 2 || fmt.Sprint(msgs[0].Lines) != fmt.Sprint(want) {
		t.Fatalf("messages = %+v", msgs)
	}
	if got := text(msgs); got != "$ make\nout 1\nerr 1\nout 2\nno newline\n" {
		t.Fatalf("terminal text = %q", got)
	}
}

// TestJobLogFlushesAfterInterval is a command that prints and then runs
// past the flush interval: its early lines reach the topic on the
// worker's clock, before End, and nothing goes out earlier.
func TestJobLogFlushesAfterInterval(t *testing.T) {
	l, rec, vc := newTestLog()
	defer l.close()
	stdout := &logPipe{log: l, kind: LogStdout}
	stdout.Write([]byte("epoch 1\nepoch 2\n"))
	vc.Advance(LogFlushInterval - time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if msgs := rec.messages(); len(msgs) != 0 {
		t.Fatalf("published before the interval: %+v", msgs)
	}
	vc.Advance(time.Millisecond)
	msgs := rec.waitFor(t, 1)
	if len(msgs) != 1 || text(msgs) != "epoch 1\nepoch 2\n" {
		t.Fatalf("after the interval: %+v", msgs)
	}
	stdout.Write([]byte("epoch 3\n"))
	l.send(&LogMessage{Kind: LogEnd})
	msgs = rec.messages()
	if len(msgs) != 3 || msgs[1].Kind != LogOutput || msgs[2].Kind != LogEnd || text(msgs) != "epoch 1\nepoch 2\nepoch 3\n" {
		t.Fatalf("messages = %+v", msgs)
	}
	// The first batch's timer is spent; the second batch's never fired
	// and must not flush anything now.
	vc.Advance(time.Hour)
	if n := len(rec.waitFor(t, 4)); n != 3 {
		t.Fatalf("%d messages after End", n)
	}
}

// TestJobLogCutsLongLine: a line longer than a batch is cut into pieces
// that each fit one, never inside a UTF-8 sequence, and join back to the
// line; the lines around it are untouched.
func TestJobLogCutsLongLine(t *testing.T) {
	l, rec, _ := newTestLog()
	defer l.close()
	long := strings.Repeat("€x", 3*LogBatchBytes/4+7) // 3 bytes then 1: cuts land inside runes
	l.line(LogStdout, "before")
	l.line(LogStderr, long)
	l.line(LogStdout, "after")
	l.send(&LogMessage{Kind: LogEnd})
	msgs := rec.messages()
	if got := text(msgs); got != "before\n"+long+"\nafter\n" {
		t.Fatalf("terminal text differs: %d bytes, want %d", len(got), len(long)+14)
	}
	var pieces []LogLine
	for _, lm := range msgs[:len(msgs)-1] {
		size := 0
		for _, ln := range lm.Lines {
			size += logLineOverhead + len(ln.Text)
		}
		if size > LogBatchBytes {
			t.Errorf("batch of %d bytes", size)
		}
		pieces = append(pieces, lm.Lines...)
	}
	if len(pieces) < 5 || pieces[0].Text != "before" || pieces[len(pieces)-1].Text != "after" {
		t.Fatalf("%d pieces", len(pieces))
	}
	for i, p := range pieces[1 : len(pieces)-1] {
		last := i == len(pieces)-3
		if p.Kind != LogStderr || p.Cont == last || !utf8.ValidString(p.Text) {
			t.Errorf("piece %d: kind %s cont %v valid %v", i, p.Kind, p.Cont, utf8.ValidString(p.Text))
		}
	}
}

// TestJobLogBoundsEmptyLines: the byte bound counts each line's framing,
// so a flood of empty lines still goes out in bounded batches.
func TestJobLogBoundsEmptyLines(t *testing.T) {
	l, rec, _ := newTestLog()
	defer l.close()
	stdout := &logPipe{log: l, kind: LogStdout}
	stdout.Write([]byte(strings.Repeat("\n", 10000)))
	l.send(&LogMessage{Kind: LogEnd})
	msgs := rec.messages()
	total := 0
	for _, lm := range msgs {
		if len(lm.Lines) > LogBatchBytes/logLineOverhead {
			t.Errorf("batch of %d lines", len(lm.Lines))
		}
		total += len(lm.Lines)
	}
	if total != 10000 || len(msgs) < 3 {
		t.Fatalf("%d lines in %d messages", total, len(msgs))
	}
}

// TestJobLogTimerRacesMarkers races flush timers against cmd_done and
// End: every line arrives once, in order, each on the right side of
// every marker. Run under -race.
func TestJobLogTimerRacesMarkers(t *testing.T) {
	l, rec, vc := newTestLog()
	defer l.close()
	stdout, stderr := &logPipe{log: l, kind: LogStdout}, &logPipe{log: l, kind: LogStderr}
	const lines, perCmd = 2000, 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < lines; i++ {
			pipe := stdout
			if i%3 == 0 {
				pipe = stderr
			}
			fmt.Fprintf(pipe, "line %d\n", i)
			runtime.Gosched() // let armed timers fire mid-batch
			if i%perCmd == perCmd-1 {
				l.send(&LogMessage{Kind: LogCmdDone, Elapsed: float64(i)})
			}
		}
		l.send(&LogMessage{Kind: LogEnd})
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			vc.Advance(LogFlushInterval)
		}
	}
	next := 0
	for _, lm := range rec.messages() {
		switch lm.Kind {
		case LogOutput:
			for _, ln := range lm.Lines {
				if want := fmt.Sprintf("line %d", next); ln.Text != want || ln.Cont {
					t.Fatalf("got %q, want %q", ln.Text, want)
				}
				next++
			}
		case LogCmdDone:
			if int(lm.Elapsed) != next-1 {
				t.Fatalf("cmd_done after line %d arrived after line %d", int(lm.Elapsed), next-1)
			}
		case LogEnd:
			if next != lines {
				t.Fatalf("End after %d of %d lines", next, lines)
			}
		}
	}
	if next != lines {
		t.Fatalf("%d of %d lines arrived", next, lines)
	}
}

// TestJobLogMessagesPerJob counts what a dev_small-shaped job — the
// default build file over the course project — publishes on its log
// topic: one batch of output and End, where a message per line was 16.
func TestJobLogMessagesPerJob(t *testing.T) {
	e := newEnv(t)
	rec := &logRecorder{Queue: e.queue}
	e.worker.Queue = rec
	c := e.client(t, "team-count")
	res, err := submitAndHandle(t, e, c, KindRun, devSmallBuild(t), newProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-count"}))
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	msgs := rec.messages()
	if len(msgs) != 2 || msgs[0].Kind != LogOutput || msgs[1].Kind != LogEnd {
		t.Fatalf("%d log messages per job, want 2: %+v", len(msgs), msgs)
	}
	if res.LogLines != len(msgs[0].Lines) || res.LogLines < 10 {
		t.Fatalf("client counted %d lines of %d", res.LogLines, len(msgs[0].Lines))
	}
	if got := c.Stdout.(*bytes.Buffer).String(); got != text(msgs) {
		t.Fatalf("client printed %q, batch holds %q", got, text(msgs))
	}
}

// TestRejectionFlushesBeforeEnd: a rejection's line reaches the client
// ahead of its End, in one batch.
func TestRejectionFlushesBeforeEnd(t *testing.T) {
	e := newEnv(t)
	rec := &logRecorder{Queue: e.queue}
	e.worker.Queue = rec
	c := e.client(t, "team-reject")
	c.Creds.AccessKey = "forged"
	_, err := submitAndHandle(t, e, c, KindRun, devSmallBuild(t), newProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-reject"}))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	msgs := rec.messages()
	if len(msgs) != 2 || msgs[1].Kind != LogEnd || !strings.HasPrefix(text(msgs), "job rejected: authentication failed") {
		t.Fatalf("messages = %+v", msgs)
	}
	if !strings.Contains(err.Error(), msgs[1].Reason) || msgs[1].Reason == "" {
		t.Fatalf("err %v does not carry reason %q", err, msgs[1].Reason)
	}
}
