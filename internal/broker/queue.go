package broker

import "context"

// Queue is the message-broker port the client, the workers and the
// collector are written against (paper §IV–V: rai/tasks in,
// log_${job_id} back). *Broker satisfies it in process and
// brokerd.Queue over TCP, so the same code runs embedded in simulations
// and distributed across machines. It is declared next to the engine
// because Subscribe returns an interface (Go has no covariant returns).
type Queue interface {
	// Publish enqueues body on topic and returns the broker-assigned id.
	Publish(ctx context.Context, topic string, body []byte) (uint64, error)
	// Subscribe attaches a consumer to topic/channel with at most
	// maxInFlight unsettled deliveries.
	Subscribe(ctx context.Context, topic, channel string, maxInFlight int) (Consumer, error)
}

// Consumer is what a subscriber holds: a stream of per-attempt
// messages and the one way to settle them. Settling through a closed
// consumer never touches a later redelivery of the same message.
type Consumer interface {
	// C delivers messages; it closes when the consumer ends.
	C() <-chan *Message
	// Ack marks m done.
	Ack(ctx context.Context, m *Message) error
	// Requeue hands m back for redelivery, possibly to another consumer.
	Requeue(ctx context.Context, m *Message) error
	// Close detaches the consumer; unsettled deliveries are requeued.
	Close() error
}

var (
	_ Queue    = (*Broker)(nil)
	_ Consumer = (*Subscription)(nil)
)
