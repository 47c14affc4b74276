package core

import (
	"context"
	"io"
	"time"

	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/cas"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/telemetry"
)

// ShipTelemetry adapts a Queue into the exporter's ShipFunc: every
// span/event batch is published on the rai.telemetry route, where the
// collector persists it. Used by all daemons (and the CLI) so the
// observability pipeline rides the same fabric as job traffic.
func ShipTelemetry(q Queue) telemetry.ShipFunc {
	return func(ctx context.Context, b *telemetry.Batch) error {
		return q.Publish(ctx, TelemetryTopic, b.Encode())
	}
}

// Queue is the message-broker port. Both the in-process engine
// (internal/broker) and the TCP client (internal/brokerd) satisfy it
// through the adapters below, so the same client/worker code runs
// embedded in simulations and distributed across machines.
type Queue interface {
	Publish(ctx context.Context, topic string, body []byte) error
	Subscribe(ctx context.Context, topic, channel string, maxInFlight int) (Subscription, error)
}

// Subscription is one consumer attachment.
type Subscription interface {
	// C delivers messages; it closes when the subscription ends.
	C() <-chan QueueMsg
	Close() error
}

// QueueMsg is a delivered message with its settlement handles.
type QueueMsg struct {
	Body    []byte
	Ack     func() error
	Requeue func() error
}

// ---- in-process broker adapter ----

// BrokerQueue adapts *broker.Broker to Queue. The engine is in-memory,
// so ctx only gates entry — there is no I/O to cancel.
type BrokerQueue struct{ B *broker.Broker }

// Publish implements Queue.
func (q BrokerQueue) Publish(ctx context.Context, topic string, body []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := q.B.Publish(topic, body)
	return err
}

// Subscribe implements Queue.
func (q BrokerQueue) Subscribe(ctx context.Context, topic, channel string, maxInFlight int) (Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sub, err := q.B.Subscribe(topic, channel, maxInFlight)
	if err != nil {
		return nil, err
	}
	out := make(chan QueueMsg, maxInFlight)
	go func() {
		defer close(out)
		for m := range sub.C() {
			out <- QueueMsg{
				Body:    m.Body,
				Ack:     func() error { return sub.Ack(m) },
				Requeue: func() error { return sub.Requeue(m) },
			}
		}
	}()
	return brokerSub{sub: sub, c: out}, nil
}

type brokerSub struct {
	sub *broker.Subscription
	c   chan QueueMsg
}

func (s brokerSub) C() <-chan QueueMsg { return s.c }
func (s brokerSub) Close() error       { return s.sub.Close() }

// ---- TCP broker adapter ----

// RemoteQueue adapts a brokerd server address to Queue on top of
// reconnecting clients: publishes share one connection, each
// subscription holds its own (the brokerd protocol allows one
// subscription per connection), and all of them redial through broker
// restarts under the queue's retry policy.
type RemoteQueue struct {
	Addr string

	policy      netx.Policy
	metrics     *netx.Metrics
	dialTimeout time.Duration
	pub         *brokerd.ReconnClient
}

// RemoteQueueOption configures NewRemoteQueue.
type RemoteQueueOption func(*RemoteQueue)

// WithQueuePolicy sets the retry policy for every connection the queue
// opens.
func WithQueuePolicy(p netx.Policy) RemoteQueueOption {
	return func(q *RemoteQueue) { q.policy = p }
}

// WithQueueMetrics counts the queue's retries, reconnects, and blown
// deadlines.
func WithQueueMetrics(m *netx.Metrics) RemoteQueueOption {
	return func(q *RemoteQueue) { q.metrics = m }
}

// WithQueueDialTimeout bounds each dial attempt (0 = brokerd's
// DefaultDialTimeout).
func WithQueueDialTimeout(d time.Duration) RemoteQueueOption {
	return func(q *RemoteQueue) { q.dialTimeout = d }
}

// NewRemoteQueue connects the publish path. The eager Ping keeps the
// historical contract that a bad address fails at construction, not on
// first use; ctx bounds that probe.
func NewRemoteQueue(ctx context.Context, addr string, opts ...RemoteQueueOption) (*RemoteQueue, error) {
	q := &RemoteQueue{Addr: addr}
	for _, o := range opts {
		o(q)
	}
	q.pub = q.newClient()
	if err := q.pub.Ping(ctx); err != nil {
		_ = q.pub.Close()
		return nil, err
	}
	return q, nil
}

func (q *RemoteQueue) newClient() *brokerd.ReconnClient {
	opts := []brokerd.ReconnOption{
		brokerd.WithPolicy(q.policy),
		brokerd.WithMetrics(q.metrics),
	}
	if q.dialTimeout > 0 {
		opts = append(opts, brokerd.WithDialOptions(brokerd.WithDialTimeout(q.dialTimeout)))
	}
	return brokerd.NewReconnClient(q.Addr, opts...)
}

// Publish implements Queue.
func (q *RemoteQueue) Publish(ctx context.Context, topic string, body []byte) error {
	_, err := q.pub.Publish(ctx, topic, body)
	return err
}

// Subscribe implements Queue. The subscription survives broker
// restarts: its connection resubscribes transparently and deliveries
// resume (at-least-once — in-flight messages at the moment of the drop
// are requeued by the broker and redelivered).
func (q *RemoteQueue) Subscribe(ctx context.Context, topic, channel string, maxInFlight int) (Subscription, error) {
	conn := q.newClient()
	if err := conn.Subscribe(ctx, topic, channel, maxInFlight); err != nil {
		_ = conn.Close()
		return nil, err
	}
	// Settlement outlives the Subscribe call (the consumer acks from its
	// own loop), so it keeps the caller's values but not its cancellation:
	// an ack for completed work must still reach the broker after the
	// subscribing context winds down.
	settleCtx := context.WithoutCancel(ctx)
	out := make(chan QueueMsg, maxInFlight)
	go func() {
		defer close(out)
		for d := range conn.C() {
			out <- QueueMsg{
				Body:    d.Body,
				Ack:     func() error { return conn.Ack(settleCtx, d) },
				Requeue: func() error { return conn.Requeue(settleCtx, d) },
			}
		}
	}()
	return remoteSub{conn: conn, c: out}, nil
}

// Close shuts down the publish connection.
func (q *RemoteQueue) Close() error { return q.pub.Close() }

type remoteSub struct {
	conn *brokerd.ReconnClient
	c    chan QueueMsg
}

func (s remoteSub) C() <-chan QueueMsg { return s.c }
func (s remoteSub) Close() error       { return s.conn.Close() }

// ---- object store port ----

// Objects is the file-server port, satisfied by both the HTTP client
// (objstore.Client) and the in-process engine (objstore.Store).
// Projects go up as chunks plus a manifest (MissingChunks, PutChunks,
// then Put of the manifest — cas.go). GetReader streams an object so
// the caller can bound what it reads; its int64 is the content length
// (-1 when the server does not say).
type Objects interface {
	Put(ctx context.Context, bucket, key string, data []byte, ttl time.Duration) error
	Get(ctx context.Context, bucket, key string) ([]byte, error)
	GetReader(ctx context.Context, bucket, key string) (io.ReadCloser, int64, error)
	List(ctx context.Context, bucket, prefix string) ([]objstore.ObjectInfo, error)
	Delete(ctx context.Context, bucket, key string) error
	// MissingChunks returns the subset of the manifest's chunks absent
	// from the store, refreshing the TTL of those present.
	MissingChunks(ctx context.Context, m *cas.Manifest) ([]string, error)
	// PutChunks uploads the named chunks from src and returns the
	// payload bytes transferred.
	PutChunks(ctx context.Context, hashes []string, src cas.Source) (int64, error)
}

var _ Objects = (*objstore.Client)(nil)
var _ Objects = (*objstore.Store)(nil)
var _ Queue = BrokerQueue{}
var _ Queue = (*RemoteQueue)(nil)
