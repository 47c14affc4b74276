package brokerd

import (
	"context"
	"errors"
	"sync"
	"time"

	"rai/internal/broker"
	"rai/internal/clock"
	"rai/internal/netx"
)

// ReconnClient wraps the wire connection with transparent redial: every
// operation runs under a netx retry policy, a dropped connection is
// replaced on the next call, and an active subscription is replayed on
// the fresh connection so the consumer's delivery stream survives a
// broker restart. Because the broker requeues unacknowledged messages
// when a subscriber connection dies, the stream is at-least-once: an
// Ack for a message delivered on a connection that has since died is a
// no-op (the broker already owns the message again). A subscribed
// ReconnClient is the TCP queue's broker.Consumer.
//
// ReconnClient is safe for concurrent use.
type ReconnClient struct {
	addr   string
	policy netx.Policy

	// ctx is the subscription lifetime, created on Subscribe from the
	// caller's context (values kept, cancellation stripped — the pump
	// must outlive the Subscribe call) and done on Close. nil until the
	// client subscribes.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	cur    *conn
	ever   bool // a connection has been established at least once
	closed bool

	// Subscription replay state. One subscription per client, mirroring
	// the wire protocol.
	subTopic   string
	subChannel string
	subMaxIF   int
	subbed     bool
	unsubbed   bool             // the subscription ended before the client closed
	owners     map[uint64]*conn // msgID -> connection that delivered it
	msgs       chan *broker.Message
	pumpDone   chan struct{}
}

// NewReconnClient returns a reconnecting client for the broker at addr.
// No connection is made until the first operation. policy applies to
// every operation: its Retryable is composed with brokerd's own
// classification (ServerError replies never retry) and its Metrics
// count the retries, reconnects and blown deadlines. Each (re)dial is
// bounded by DefaultDialTimeout.
func NewReconnClient(addr string, policy netx.Policy) *ReconnClient {
	r := &ReconnClient{
		addr:   addr,
		policy: policy,
		owners: map[uint64]*conn{},
		msgs:   make(chan *broker.Message, deliveryBuffer),
	}
	inner := r.policy.Retryable
	r.policy.Retryable = func(err error) bool {
		if isServerError(err) || netx.IsPermanent(err) {
			return false
		}
		if inner != nil {
			return inner(err)
		}
		return netx.DefaultRetryable(err)
	}
	return r
}

// live returns the live connection, dialing one if necessary. Dialing
// is a single attempt — callers run under netx.Do, which owns retries.
func (r *ReconnClient) live(ctx context.Context) (*conn, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClientClosed
	}
	if c := r.cur; c != nil {
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()

	c, err := dial(ctx, r.addr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		_ = c.Close()
		return nil, ErrClientClosed
	}
	if r.cur != nil { // lost a dial race; keep the established one
		go func() { _ = c.Close() }()
		return r.cur, nil
	}
	if r.ever {
		r.policy.Metrics.Reconnect()
	}
	r.ever = true
	r.cur = c
	return c, nil
}

// invalidate drops c as the current connection if it still is.
func (r *ReconnClient) invalidate(c *conn) {
	r.mu.Lock()
	if r.cur == c {
		r.cur = nil
	}
	// Deliveries from a dead connection can no longer be acked on it;
	// the broker requeues them itself.
	for id, owner := range r.owners {
		if owner == c {
			delete(r.owners, id)
		}
	}
	r.mu.Unlock()
	_ = c.Close()
}

// do runs op against a live connection under the retry policy,
// invalidating the connection on a transport failure so the next attempt
// redials. A server's error reply and a frame refused before it was
// written (netx.Permanent) leave the connection, and every call sharing
// it, alone.
func (r *ReconnClient) do(ctx context.Context, op func(ctx context.Context, c *conn) error) error {
	return netx.Do(ctx, r.policy, func(ctx context.Context) error {
		c, err := r.live(ctx)
		if err != nil {
			return err
		}
		err = op(ctx, c)
		if err != nil && !isServerError(err) && !netx.IsPermanent(err) {
			r.invalidate(c)
		}
		return err
	})
}

// Publish sends body to topic, retrying across connection drops, and
// returns the broker-assigned message ID.
func (r *ReconnClient) Publish(ctx context.Context, topic string, body []byte) (uint64, error) {
	var id uint64
	err := r.do(ctx, func(ctx context.Context, c *conn) error {
		var err error
		id, err = c.Publish(ctx, topic, body)
		return err
	})
	return id, err
}

// connect dials the client's connection unless it has one, under the
// retry policy.
func (r *ReconnClient) connect(ctx context.Context) error {
	return r.do(ctx, func(context.Context, *conn) error { return nil })
}

// Subscribe attaches to topic/channel and keeps the subscription alive
// across broker restarts: when the delivering connection drops, the
// client redials and resubscribes, and deliveries resume on C(). Only
// one subscription per client, matching the wire protocol. maxInFlight
// is clamped to the delivery stream's capacity.
func (r *ReconnClient) Subscribe(ctx context.Context, topic, channel string, maxInFlight int) error {
	if maxInFlight > deliveryBuffer {
		maxInFlight = deliveryBuffer
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClientClosed
	}
	if r.subbed {
		r.mu.Unlock()
		return errors.New("brokerd: client already subscribed")
	}
	r.subbed = true
	r.subTopic, r.subChannel, r.subMaxIF = topic, channel, maxInFlight
	r.pumpDone = make(chan struct{})
	// The pump outlives this call by design, so it keeps the caller's
	// values but not its cancellation; Close ends it.
	r.ctx, r.cancel = context.WithCancel(context.WithoutCancel(ctx))
	r.mu.Unlock()

	// Establish the first subscription synchronously so the caller sees
	// bad-topic errors immediately; the pump owns every one after that.
	c, err := r.subscribeOnce(ctx)
	if err != nil {
		r.mu.Lock()
		r.subbed = false
		r.mu.Unlock()
		r.cancel()
		close(r.pumpDone)
		return err
	}
	go r.pump(c)
	return nil
}

// subscribeOnce gets a connection subscribed to the recorded topic,
// under the retry policy.
func (r *ReconnClient) subscribeOnce(ctx context.Context) (sub *conn, err error) {
	err = r.do(ctx, func(ctx context.Context, c *conn) error {
		sub = c
		return c.Subscribe(ctx, r.subTopic, r.subChannel, r.subMaxIF)
	})
	return sub, err
}

// pump forwards deliveries from the current subscribed connection to
// the client's stream, resubscribing on a fresh connection whenever the
// current one dies. It exits only when the subscription ends.
func (r *ReconnClient) pump(c *conn) {
	defer close(r.pumpDone)
	for {
		if !r.forward(c) {
			return
		}
		// Connection died (or broker restarted). Resubscribe forever —
		// outages longer than one policy's attempt budget should idle the
		// consumer, not kill it.
		r.invalidate(c)
		for {
			if r.ctx.Err() != nil {
				return
			}
			var err error
			c, err = r.subscribeOnce(r.ctx)
			if err == nil {
				break
			}
			select {
			case <-r.sleep():
			case <-r.ctx.Done():
				return
			}
		}
	}
}

// forward hands c's deliveries on until c dies, which it reports as
// true, or the subscription ends.
func (r *ReconnClient) forward(c *conn) bool {
	for {
		var d *broker.Message
		select {
		case m, ok := <-c.C():
			if !ok {
				return true
			}
			d = m
		case <-r.ctx.Done():
			return false
		}
		r.mu.Lock()
		r.owners[d.ID] = c
		r.mu.Unlock()
		select {
		case r.msgs <- d:
		case <-r.ctx.Done():
			return false
		}
	}
}

// sleep returns a timer channel for one inter-round pause in the
// pump's resubscribe loop, on the policy's clock. subscribeOnce already
// backed off between its attempts, so this just paces the rounds at the
// policy's deepest (capped) backoff.
func (r *ReconnClient) sleep() <-chan time.Time {
	ck := r.policy.Clock
	if ck == nil {
		ck = clock.Real{}
	}
	return ck.After(r.policy.Delay(netx.DefaultMaxAttempts))
}

// C returns the delivery stream; it closes when the client is closed.
func (r *ReconnClient) C() <-chan *broker.Message { return r.msgs }

// Ack acknowledges a delivery. If the connection that delivered it has
// since died, the broker has already requeued the message and Ack is a
// successful no-op (the redelivery will carry it again).
func (r *ReconnClient) Ack(ctx context.Context, m *broker.Message) error {
	return r.settle(ctx, m, (*conn).Ack)
}

// Requeue returns a delivery to the queue. Like Ack, it is a no-op if
// the delivering connection is gone — the broker already requeued it.
func (r *ReconnClient) Requeue(ctx context.Context, m *broker.Message) error {
	return r.settle(ctx, m, (*conn).Requeue)
}

func (r *ReconnClient) settle(ctx context.Context, m *broker.Message, op func(*conn, context.Context, *broker.Message) error) error {
	r.mu.Lock()
	owner, ok := r.owners[m.ID]
	if ok {
		delete(r.owners, m.ID)
	}
	r.mu.Unlock()
	if !ok {
		return nil // delivering connection died; broker requeued it
	}
	err := op(owner, ctx, m)
	if err != nil && !isServerError(err) && !netx.IsPermanent(err) {
		r.invalidate(owner)
		return nil // transport died mid-settle; broker requeues
	}
	return err
}

// unsubscribe ends the subscription and keeps the connection for the
// client's other calls: the pump stops, the broker is told with UNSUB
// (on a connection that has died it already knows), deliveries not yet
// settled go back to it, and the delivery stream closes. The client
// does not subscribe again.
func (r *ReconnClient) unsubscribe() {
	r.mu.Lock()
	if r.closed || !r.subbed || r.unsubbed {
		r.mu.Unlock()
		return
	}
	r.unsubbed = true
	cancel, pumpDone := r.cancel, r.pumpDone
	r.mu.Unlock()

	cancel()
	<-pumpDone
	r.mu.Lock()
	c := r.cur
	clear(r.owners) // settling them now is a no-op: the broker requeues them
	r.mu.Unlock()
	if c != nil {
		_ = c.Unsubscribe() // an error means the connection died, which ends it too
	}
	close(r.msgs)
}

// Close tears down the connection and stops the resubscribe pump. The
// delivery stream closes.
func (r *ReconnClient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.cur
	r.cur = nil
	pumpDone := r.pumpDone
	cancel := r.cancel
	unsubbed := r.unsubbed
	r.mu.Unlock()

	if cancel != nil {
		cancel()
	}
	var err error
	if c != nil {
		err = c.Close()
	}
	if pumpDone != nil {
		<-pumpDone
	}
	if !unsubbed {
		close(r.msgs) // once: only the first Close gets past r.closed
	}
	return err
}
