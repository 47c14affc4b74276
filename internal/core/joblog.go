package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"
	"unicode/utf8"

	"rai/internal/broker"
	"rai/internal/clock"
)

// The log stream (DESIGN.md §11). The worker pipes the container's
// stdout and stderr, and its own system lines, onto the job's log topic
// in batches rather than one message per line: a batch goes out when its
// first line has waited LogFlushInterval, when it reaches LogBatchBytes,
// or just before any message that is not output (End, cmd_done). The
// student still sees output as it happens, and a short job costs the
// topic two messages, its output and End.
const (
	// LogFlushInterval is how long a line waits in the worker, at most,
	// before the batch holding it is published.
	LogFlushInterval = 100 * time.Millisecond
	// LogBatchBytes bounds one batch: its lines' text plus
	// logLineOverhead each. A longer line is cut across batches, so no
	// message comes near the broker's frame limit.
	LogBatchBytes = 64 << 10
	// logLineOverhead is what a line adds to a batch beyond its text —
	// its JSON framing — so a batch of empty lines is bounded too.
	logLineOverhead = 40
)

// jobLog is a job's side of its log topic. Lines collect in one buffer
// in the order they are written and leave as one output message by the
// rule above. One mutex covers the buffer and the publish, so batches
// leave in order and no line is in two of them; a writer waits only
// when the batch it would grow is on the wire.
type jobLog struct {
	q     broker.Queue
	clk   clock.Clock
	ctx   context.Context
	jobID string
	done  chan struct{}  // closed by close; armed flush timers give up
	wg    sync.WaitGroup // the armed timers' goroutines

	mu    sync.Mutex
	lines []LogLine
	size  int
	batch int // flushes so far: a timer flushes only the batch it was armed for
}

func newJobLog(ctx context.Context, q broker.Queue, clk clock.Clock, jobID string) *jobLog {
	return &jobLog{q: q, clk: clk, ctx: ctx, jobID: jobID, done: make(chan struct{})}
}

// systemf adds one line of the worker's own to the log.
func (l *jobLog) systemf(format string, args ...any) {
	l.line(LogSystem, fmt.Sprintf(format, args...))
}

// line adds one complete line of the given kind, cutting it across
// batches when it is longer than one holds.
func (l *jobLog) line(kind, text string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.size > 0 && l.size+logLineOverhead+len(text) > LogBatchBytes {
			l.flushLocked()
		}
		if logLineOverhead+len(text) <= LogBatchBytes {
			l.appendLocked(LogLine{Kind: kind, Text: text})
			return
		}
		cut := runeCut(text, LogBatchBytes-logLineOverhead)
		l.appendLocked(LogLine{Kind: kind, Text: text[:cut], Cont: true})
		l.flushLocked()
		text = text[cut:]
	}
}

// appendLocked adds ln to the batch, arming the flush timer when ln
// opens it.
func (l *jobLog) appendLocked(ln LogLine) {
	if len(l.lines) == 0 {
		l.arm()
	}
	l.lines = append(l.lines, ln)
	l.size += logLineOverhead + len(ln.Text)
}

// arm flushes the open batch once LogFlushInterval has passed on the
// worker's clock, unless it has gone out by then. The timer is taken
// here, not in the goroutine, so a virtual clock sees it at once.
func (l *jobLog) arm() {
	batch, fire := l.batch, l.clk.After(LogFlushInterval)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		select {
		case <-fire:
		case <-l.done:
			return
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.batch == batch {
			l.flushLocked()
		}
	}()
}

// send publishes a message that is not output — End or cmd_done —
// after the output written before it.
func (l *jobLog) send(lm *LogMessage) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushLocked()
	l.publishLocked(lm)
}

// flushLocked publishes the open batch, if any.
func (l *jobLog) flushLocked() {
	if len(l.lines) == 0 {
		return
	}
	l.publishLocked(&LogMessage{Kind: LogOutput, Lines: l.lines})
	l.lines, l.size = l.lines[:0], 0
	l.batch++
}

func (l *jobLog) publishLocked(lm *LogMessage) {
	lm.JobID = l.jobID
	_, _ = l.q.Publish(l.ctx, LogTopic(l.jobID), encodeJSON(lm))
}

// close ends the job's log once everything the job wrote has gone out
// with its End: timers still armed give up, and close returns when their
// goroutines have.
func (l *jobLog) close() {
	close(l.done)
	l.wg.Wait()
}

// runeCut returns where to cut s, at most n bytes in: n, or the start
// of the rune n falls inside, so a cut never splits a UTF-8 sequence.
func runeCut(s string, n int) int {
	for i := n; i > n-utf8.UTFMax && i > 0; i-- {
		if utf8.RuneStart(s[i]) {
			return i
		}
	}
	return n
}

// logPipe is one of the container's output streams (§V worker step 3):
// it cuts what the container writes into lines of its kind on the job's
// log and counts the bytes, the job record's log_bytes.
type logPipe struct {
	log  *jobLog
	kind string

	mu      sync.Mutex
	partial []byte // the unterminated line so far
	total   int64
}

// Write implements io.Writer.
func (p *logPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total += int64(len(b))
	n := len(b)
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			p.partial = append(p.partial, b...)
			return n, nil
		}
		p.partial = append(p.partial, b[:i]...)
		p.log.line(p.kind, string(p.partial))
		p.partial = p.partial[:0]
		b = b[i+1:]
	}
}

// Flush adds the unterminated final line, if any, as a line.
func (p *logPipe) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.partial) > 0 {
		p.log.line(p.kind, string(p.partial))
		p.partial = p.partial[:0]
	}
}

// Bytes reports the total bytes written.
func (p *logPipe) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}
