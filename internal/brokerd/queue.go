package brokerd

import (
	"context"
	"sync/atomic"

	"rai/internal/broker"
	"rai/internal/netx"
)

// Queue is the TCP implementation of the broker.Queue port, built on
// reconnecting clients. Publishes and the queue's first subscription
// share one connection; each later subscription holds its own, since
// the protocol allows one subscription per connection. All of them
// redial through broker restarts under the queue's retry policy.
type Queue struct {
	addr   string
	policy netx.Policy
	pub    *ReconnClient
	shared atomic.Bool // the publish connection's subscription is taken
}

var (
	_ broker.Queue    = (*Queue)(nil)
	_ broker.Consumer = (*ReconnClient)(nil)
	_ broker.Consumer = sharedSub{}
)

// NewQueue dials the broker at addr, so that a bad address fails at
// construction, not on first use; ctx bounds the dial. policy is that of
// NewReconnClient, for every connection the queue opens.
func NewQueue(ctx context.Context, addr string, policy netx.Policy) (*Queue, error) {
	q := &Queue{addr: addr, policy: policy, pub: NewReconnClient(addr, policy)}
	if err := q.pub.connect(ctx); err != nil {
		_ = q.pub.Close()
		return nil, err
	}
	return q, nil
}

// Publish implements broker.Queue.
func (q *Queue) Publish(ctx context.Context, topic string, body []byte) (uint64, error) {
	return q.pub.Publish(ctx, topic, body)
}

// Subscribe implements broker.Queue. The subscription survives broker
// restarts: its connection resubscribes transparently and deliveries
// resume (at-least-once — in-flight messages at the moment of the drop
// are requeued by the broker and redelivered). The first subscription
// rides the publish connection and ends when it is closed or the queue
// is; the connection stays for publishes either way.
func (q *Queue) Subscribe(ctx context.Context, topic, channel string, maxInFlight int) (broker.Consumer, error) {
	if q.shared.CompareAndSwap(false, true) {
		if err := q.pub.Subscribe(ctx, topic, channel, maxInFlight); err != nil {
			q.shared.Store(false)
			return nil, err
		}
		return sharedSub{q.pub}, nil
	}
	rc := NewReconnClient(q.addr, q.policy)
	if err := rc.Subscribe(ctx, topic, channel, maxInFlight); err != nil {
		_ = rc.Close()
		return nil, err
	}
	return rc, nil
}

// Close shuts down the publish connection, and with it the first
// subscription.
func (q *Queue) Close() error { return q.pub.Close() }

// sharedSub is the subscription on the publish connection: closing it
// ends the subscription, not the connection.
type sharedSub struct{ *ReconnClient }

func (s sharedSub) Close() error {
	s.unsubscribe()
	return nil
}
