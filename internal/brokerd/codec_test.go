package brokerd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

var fuzzOps = []string{OpPub, OpSub, OpAck, OpReq, OpPing, OpOK, OpErr, OpMsg}

// FuzzFrameRoundTrip checks EncodeFrame→DecodeFrame is the identity for
// any field values: the codec must take arbitrary bytes in strings and
// any time.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(42), 3, 8, int64(1700000000_000000001), true, "rai", "tasks", "", []byte("job payload"))
	f.Add(uint8(7), uint64(9), uint64(0), 0, 0, int64(0), false, "", "", "boom", []byte{})
	f.Add(uint8(1), uint64(1<<63), uint64(1<<62), -1, -5, int64(-1), true, "log_7#x", "worker#3", "", []byte{0, 0xff, 0x80})
	f.Fuzz(func(t *testing.T, opIdx uint8, seq, msgID uint64, attempts, maxInFlight int, nanos int64, hasTime bool, topic, channel, errStr string, body []byte) {
		in := &Frame{
			Op:          fuzzOps[int(opIdx)%len(fuzzOps)],
			Seq:         seq,
			MsgID:       msgID,
			Attempts:    attempts,
			MaxInFlight: maxInFlight,
			Topic:       topic,
			Channel:     channel,
			Error:       errStr,
			Body:        body,
		}
		if hasTime {
			in.Time = time.Unix(0, nanos).UTC()
		}
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, in); err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := DecodeFrame(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Op != in.Op || out.Seq != in.Seq || out.MsgID != in.MsgID ||
			int32(out.Attempts) != int32(in.Attempts) || int32(out.MaxInFlight) != int32(in.MaxInFlight) ||
			out.Topic != in.Topic || out.Channel != in.Channel || out.Error != in.Error {
			t.Fatalf("fields drifted:\n in=%+v\nout=%+v", in, out)
		}
		if !bytes.Equal(out.Body, in.Body) {
			t.Fatalf("body %q != %q", out.Body, in.Body)
		}
		if !out.Time.Equal(in.Time) {
			t.Fatalf("time %v != %v", out.Time, in.Time)
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after decode", buf.Len())
		}
	})
}

// FuzzBinaryDecode feeds arbitrary length-prefixed payloads to the
// decoder: malformed frames must come back as errors, never
// panics or hangs.
func FuzzBinaryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, binHeaderLen))
	// A valid PUB frame as a seed so the corpus mutates from real shapes.
	var buf bytes.Buffer
	if err := EncodeFrame(&buf, &Frame{Op: OpPub, Seq: 1, Topic: "rai", Body: []byte("x")}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[4:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > maxFrameSize {
			t.Skip()
		}
		var hdr [4]byte
		hdr[0] = byte(len(payload) >> 24)
		hdr[1] = byte(len(payload) >> 16)
		hdr[2] = byte(len(payload) >> 8)
		hdr[3] = byte(len(payload))
		r := io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(payload))
		out, err := DecodeFrame(r)
		if err == nil {
			// Whatever decoded must re-encode cleanly.
			var buf bytes.Buffer
			if err := EncodeFrame(&buf, out); err != nil {
				t.Fatalf("decoded frame %+v will not re-encode: %v", out, err)
			}
		}
	})
}

func TestBinaryDecodeMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty payload":    {},
		"short header":     bytes.Repeat([]byte{0}, binHeaderLen-1),
		"unknown op":       append([]byte{0xee}, bytes.Repeat([]byte{0}, binHeaderLen-1)...),
		"field past end":   append(append([]byte{1}, bytes.Repeat([]byte{0}, binHeaderLen-1)...), 0xff, 0xff, 0xff, 0xff),
		"truncated length": append(append([]byte{1}, bytes.Repeat([]byte{0}, binHeaderLen-1)...), 0, 0),
	}
	for name, payload := range cases {
		var buf bytes.Buffer
		var hdr [4]byte
		hdr[3] = byte(len(payload))
		hdr[2] = byte(len(payload) >> 8)
		buf.Write(hdr[:])
		buf.Write(payload)
		if _, err := DecodeFrame(&buf); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestLegacyPeersDisconnected: there is one encoding and no negotiation,
// so a peer that opens with anything else — a length-prefixed JSON frame
// from the retired encoding, a JSON HELLO, or a frame under one of the
// retired op codes (9 CLOSE, 10 STATS, 11 HELLO) — is dropped without a
// reply, and the server keeps serving everyone else.
func TestLegacyPeersDisconnected(t *testing.T) {
	_, srv := newPair(t)
	framed := func(payload []byte) []byte {
		return append([]byte{byte(len(payload) >> 24), byte(len(payload) >> 16), byte(len(payload) >> 8), byte(len(payload))}, payload...)
	}
	cases := map[string][]byte{
		"legacy JSON PING":  framed([]byte(`{"op":"PING","seq":99,"time":"0001-01-01T00:00:00Z"}` + "\n")),
		"legacy JSON HELLO": framed([]byte(`{"op":"HELLO","seq":1,"version":2,"time":"0001-01-01T00:00:00Z"}` + "\n")),
		"op code 9 CLOSE":   framed(append([]byte{9}, make([]byte, binHeaderLen-1+12)...)),
		"op code 10 STATS":  framed(append([]byte{10}, make([]byte, binHeaderLen-1+12)...)),
		"op code 11 HELLO":  framed(append([]byte{11}, make([]byte, binHeaderLen-1+16)...)),
	}
	for name, first := range cases {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(first); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Errorf("%s: connection not closed by the server: %v", name, err)
		}
		if len(got) != 0 {
			t.Errorf("%s: server replied %q before closing", name, got)
		}
		conn.Close()
	}
	if err := dialT(t, srv).Ping(bg); err != nil {
		t.Fatalf("server unusable after dropping legacy peers: %v", err)
	}
}

// TestCallAgainstMuteServer points the client at a server that accepts
// and then never replies: the call must end with its context instead of
// hanging.
func TestCallAgainstMuteServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(io.Discard, conn) // read forever, reply never
	}()

	c, err := dial(bg, ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithTimeout(bg, 200*time.Millisecond)
	defer cancel()
	if err := c.Ping(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ping against a mute server: %v, want deadline exceeded", err)
	}
}
