package brokerd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rai/internal/netx"
)

// encPool recycles encode staging buffers so steady-state publishing
// allocates nothing for framing.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putEncBuf returns a staging buffer to the pool unless it has grown
// past the point where keeping it would pin large message bodies.
func putEncBuf(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		b.Reset()
		encPool.Put(b)
	}
}

// readPayload reads one length-prefixed payload, enforcing the frame
// size limit.
func readPayload(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameSize {
		return nil, fmt.Errorf("brokerd: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Frame layout (after the 4-byte big-endian length) — one op byte,
// fixed-width ids and the body as raw bytes, so no reflection and no
// base64:
//
//	[0]     op code
//	[1:9]   seq        (uint64 BE)
//	[9:17]  msg id     (uint64 BE)
//	[17:21] attempts   (int32 BE)
//	[21:29] time       (int64 BE unix nanoseconds; see flagHasTime)
//	[29:33] max in flight (int32 BE)
//	[33]    flags
//	then three length-prefixed strings (uint32 BE + bytes):
//	topic, channel, error
//	then the body: every remaining byte, raw.
const (
	binHeaderLen = 34
	flagHasTime  = 1 << 0 // distinguishes the zero time.Time from the epoch
)

// Op codes. Values are wire format — append only. 5 was PING, 9 was
// CLOSE, 10 was STATS and 11 was HELLO (codec negotiation), all retired;
// do not reuse them.
var opToCode = map[string]byte{
	OpPub: 1, OpSub: 2, OpAck: 3, OpReq: 4,
	OpOK: 6, OpErr: 7, OpMsg: 8, OpUnsub: 12,
}

var codeToOp = func() map[byte]string {
	m := make(map[byte]string, len(opToCode))
	for op, c := range opToCode {
		m[c] = op
	}
	return m
}()

// EncodeFrame writes f as one length-prefixed frame. A frame it
// refuses — an unknown op, or over the size limit — is refused before
// anything is written, and the refusal is netx.Permanent: sending it
// again, on this connection or another, cannot succeed.
func EncodeFrame(w io.Writer, f *Frame) error {
	code, ok := opToCode[f.Op]
	if !ok {
		return netx.Permanent(fmt.Errorf("brokerd: unknown op %q", f.Op))
	}
	n := binHeaderLen + 4 + len(f.Topic) + 4 + len(f.Channel) + 4 + len(f.Error) + len(f.Body)
	if n > maxFrameSize {
		return netx.Permanent(fmt.Errorf("brokerd: frame of %d bytes exceeds limit", n))
	}
	buf := encPool.Get().(*bytes.Buffer)
	defer putEncBuf(buf)
	buf.Grow(4 + n)

	var hdr [4 + binHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = code
	binary.BigEndian.PutUint64(hdr[5:13], f.Seq)
	binary.BigEndian.PutUint64(hdr[13:21], f.MsgID)
	binary.BigEndian.PutUint32(hdr[21:25], uint32(int32(f.Attempts)))
	var flags byte
	if !f.Time.IsZero() {
		flags |= flagHasTime
		binary.BigEndian.PutUint64(hdr[25:33], uint64(f.Time.UnixNano()))
	}
	binary.BigEndian.PutUint32(hdr[33:37], uint32(int32(f.MaxInFlight)))
	hdr[37] = flags
	buf.Write(hdr[:])
	writeBytes := func(s []byte) {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s)))
		buf.Write(l[:])
		buf.Write(s)
	}
	writeBytes([]byte(f.Topic))
	writeBytes([]byte(f.Channel))
	writeBytes([]byte(f.Error))
	buf.Write(f.Body)
	_, err := w.Write(buf.Bytes())
	return err
}

// DecodeFrame reads one length-prefixed frame.
func DecodeFrame(r io.Reader) (*Frame, error) {
	payload, err := readPayload(r)
	if err != nil {
		return nil, err
	}
	if len(payload) < binHeaderLen {
		return nil, fmt.Errorf("brokerd: frame truncated at %d bytes", len(payload))
	}
	op, ok := codeToOp[payload[0]]
	if !ok {
		return nil, fmt.Errorf("brokerd: unknown op code %d", payload[0])
	}
	f := &Frame{
		Op:          op,
		Seq:         binary.BigEndian.Uint64(payload[1:9]),
		MsgID:       binary.BigEndian.Uint64(payload[9:17]),
		Attempts:    int(int32(binary.BigEndian.Uint32(payload[17:21]))),
		MaxInFlight: int(int32(binary.BigEndian.Uint32(payload[29:33]))),
	}
	if payload[33]&flagHasTime != 0 {
		f.Time = time.Unix(0, int64(binary.BigEndian.Uint64(payload[21:29]))).UTC()
	}
	rest := payload[binHeaderLen:]
	next := func() ([]byte, error) {
		if len(rest) < 4 {
			return nil, fmt.Errorf("brokerd: frame truncated in field length")
		}
		l := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint64(l) > uint64(len(rest)) {
			return nil, fmt.Errorf("brokerd: frame field of %d bytes overruns frame", l)
		}
		s := rest[:l]
		rest = rest[l:]
		return s, nil
	}
	topic, err := next()
	if err != nil {
		return nil, err
	}
	channel, err := next()
	if err != nil {
		return nil, err
	}
	errStr, err := next()
	if err != nil {
		return nil, err
	}
	f.Topic, f.Channel, f.Error = string(topic), string(channel), string(errStr)
	if len(rest) > 0 {
		f.Body = rest // aliases the per-frame payload allocation; no copy
	}
	return f, nil
}

// frameWriter serializes frame writes onto one connection through a
// buffered writer with flush coalescing: a writer that can see another
// goroutine waiting for the lock leaves its frame buffered and lets the
// last writer out issue one flush (one syscall) for the whole burst.
// Writers that expect an immediate follow-up frame (a delivery pump
// with more messages already queued) can also defer the flush
// explicitly. A write error is sticky and poisons the writer, mirroring
// a dead connection; a frame EncodeFrame refused wrote nothing, so its
// refusal is the caller's alone.
type frameWriter struct {
	waiters atomic.Int32

	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(w, 32<<10)}
}

// write encodes f and flushes unless another writer is already waiting
// to append to the buffer (it will flush instead).
func (fw *frameWriter) write(f *Frame) error { return fw.writeHint(f, false) }

// writeHint is write with a caller-supplied coalescing hint: more=true
// promises the caller will write another frame immediately, so the
// flush is left to that write.
func (fw *frameWriter) writeHint(f *Frame, more bool) error {
	fw.waiters.Add(1)
	fw.mu.Lock()
	fw.waiters.Add(-1)
	defer fw.mu.Unlock()
	if fw.err != nil {
		return fw.err
	}
	err := EncodeFrame(fw.bw, f)
	refused := netx.IsPermanent(err)
	if (err == nil || refused) && !more && fw.waiters.Load() == 0 {
		// A refused frame wrote nothing, but the writers that left their
		// flush to this one are still owed it.
		if ferr := fw.bw.Flush(); ferr != nil {
			err, refused = ferr, false
		}
	}
	if err != nil && !refused {
		fw.err = err
	}
	return err
}
