package brokerd

import (
	"context"
	"time"

	"rai/internal/broker"
	"rai/internal/netx"
)

// Queue is the TCP implementation of the broker.Queue port, built on
// reconnecting clients: publishes share one connection, each
// subscription holds its own (the protocol allows one subscription per
// connection), and all of them redial through broker restarts under the
// queue's retry policy.
type Queue struct {
	addr        string
	policy      netx.Policy
	dialTimeout time.Duration
	pub         *ReconnClient
}

var (
	_ broker.Queue    = (*Queue)(nil)
	_ broker.Consumer = (*ReconnClient)(nil)
)

// NewQueue connects the publish path to the broker at addr; policy and
// dialTimeout are those of NewReconnClient, for every connection the
// queue opens. The eager Ping keeps the contract that a bad address
// fails at construction, not on first use; ctx bounds that probe.
func NewQueue(ctx context.Context, addr string, policy netx.Policy, dialTimeout time.Duration) (*Queue, error) {
	q := &Queue{addr: addr, policy: policy, dialTimeout: dialTimeout}
	q.pub = NewReconnClient(addr, policy, dialTimeout)
	if err := q.pub.Ping(ctx); err != nil {
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
// are requeued by the broker and redelivered).
func (q *Queue) Subscribe(ctx context.Context, topic, channel string, maxInFlight int) (broker.Consumer, error) {
	rc := NewReconnClient(q.addr, q.policy, q.dialTimeout)
	if err := rc.Subscribe(ctx, topic, channel, maxInFlight); err != nil {
		_ = rc.Close()
		return nil, err
	}
	return rc, nil
}

// Close shuts down the publish connection.
func (q *Queue) Close() error { return q.pub.Close() }
