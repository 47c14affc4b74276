package brokerd

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rai/internal/broker"
)

// conn is one TCP connection to a brokerd server, the unit the
// reconnecting client replaces when it dies. A connection may publish
// freely and hold at most one subscription, mirroring the server side.
// It is safe for concurrent use.
type conn struct {
	nc net.Conn
	fw *frameWriter
	br *bufio.Reader

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]chan *Frame
	msgs    chan *broker.Message
	closed  bool
	readErr error
	done    chan struct{}
}

// deliveryBuffer is the capacity of a delivery stream. Subscriptions
// clamp their in-flight window to it, so a read loop never blocks on a
// delivery with an ack reply queued behind it.
const deliveryBuffer = 1024

// ErrClientClosed is returned after Close.
var ErrClientClosed = errors.New("brokerd: client closed")

// ServerError is an application-level error reply from the broker — the
// request made it across the wire and the broker refused it. Retrying
// the same request will not help, unlike a transport failure.
type ServerError struct{ Msg string }

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

func isServerError(err error) bool {
	var se *ServerError
	return errors.As(err, &se)
}

// DefaultDialTimeout bounds each dial attempt when the caller passes no
// timeout of its own.
const DefaultDialTimeout = 10 * time.Second

// dial connects to a brokerd server. timeout caps the TCP dial (0 =
// DefaultDialTimeout); ctx's own deadline still applies, whichever is
// sooner.
func dial(ctx context.Context, addr string, timeout time.Duration) (*conn, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	d := net.Dialer{Timeout: timeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &conn{
		nc:      nc,
		fw:      newFrameWriter(nc),
		br:      bufio.NewReaderSize(nc, 32<<10),
		pending: map[uint64]chan *Frame{},
		msgs:    make(chan *broker.Message, deliveryBuffer),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *conn) readLoop() {
	defer close(c.done)
	for {
		f, err := DecodeFrame(c.br)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for _, ch := range c.pending {
				close(ch)
			}
			c.pending = map[uint64]chan *Frame{}
			c.mu.Unlock()
			close(c.msgs)
			return
		}
		switch f.Op {
		case OpMsg:
			c.msgs <- &broker.Message{ID: f.MsgID, Topic: f.Topic, Body: f.Body, Attempts: f.Attempts, Timestamp: f.Time}
		case OpOK, OpErr:
			c.mu.Lock()
			ch, ok := c.pending[f.Seq]
			if ok {
				delete(c.pending, f.Seq)
			}
			c.mu.Unlock()
			if ok {
				ch <- f
			}
		}
	}
}

// call sends a request frame and waits for its reply. A done ctx
// abandons the wait (the reply, if it ever lands, is discarded by the
// pending-map cleanup) — it does not tear down the connection.
func (c *conn) call(ctx context.Context, f *Frame) (*Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.nextSeq++
	f.Seq = c.nextSeq
	ch := make(chan *Frame, 1)
	c.pending[f.Seq] = ch
	c.mu.Unlock()

	if err := c.fw.write(f); err != nil {
		c.mu.Lock()
		delete(c.pending, f.Seq)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("brokerd: connection lost awaiting reply")
		}
		if reply.Op == OpErr {
			return nil, &ServerError{Msg: reply.Error}
		}
		return reply, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, f.Seq)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Publish sends body to topic and returns the broker-assigned message ID.
func (c *conn) Publish(ctx context.Context, topic string, body []byte) (uint64, error) {
	reply, err := c.call(ctx, &Frame{Op: OpPub, Topic: topic, Body: body})
	if err != nil {
		return 0, err
	}
	return reply.MsgID, nil
}

// Subscribe attaches this connection to topic/channel. Deliveries arrive
// on C(); the channel closes when the connection drops or Close is
// called.
func (c *conn) Subscribe(ctx context.Context, topic, channel string, maxInFlight int) error {
	_, err := c.call(ctx, &Frame{Op: OpSub, Topic: topic, Channel: channel, MaxInFlight: maxInFlight})
	return err
}

// C returns the delivery stream for the connection's subscription.
func (c *conn) C() <-chan *broker.Message { return c.msgs }

// Ack acknowledges a delivery.
func (c *conn) Ack(ctx context.Context, m *broker.Message) error {
	_, err := c.call(ctx, &Frame{Op: OpAck, MsgID: m.ID})
	return err
}

// Requeue returns a delivery to the queue for redelivery.
func (c *conn) Requeue(ctx context.Context, m *broker.Message) error {
	_, err := c.call(ctx, &Frame{Op: OpReq, MsgID: m.ID})
	return err
}

// Ping checks server liveness.
func (c *conn) Ping(ctx context.Context) error {
	_, err := c.call(ctx, &Frame{Op: OpPing})
	return err
}

// Close tears down the connection.
func (c *conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.nc.Close()
	<-c.done
	return err
}
