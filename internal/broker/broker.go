// Package broker implements the publish/subscribe message broker at the
// center of the RAI architecture (paper §IV, §V "Message Broker
// Operations"). It follows the topic/channel model the paper describes:
//
//   - Producers publish messages to a topic.
//   - Every channel of a topic receives a copy of each message.
//   - Within one channel, each message is delivered to exactly one
//     subscriber (load balancing) — this is how a job on rai/tasks goes to
//     exactly one worker while many workers listen.
//   - Names containing '#' (the paper's log_${job_id}/#ch) are ephemeral:
//     the channel is deleted when its last consumer leaves, and an
//     ephemeral topic is deleted when its last channel goes away.
//
// Messages held by a subscriber are "in flight" until acknowledged;
// closing a subscription requeues its unacknowledged messages, which is
// what makes a worker crash safe for the submission it was running.
//
// Locking is sharded per topic (DESIGN.md §11): a small registry
// RWMutex guards the topic map (create, delete, GC) while every queue
// operation — publish, dispatch, ack, requeue — takes only the owning
// topic's mutex. Traffic on rai/tasks and the thousands of ephemeral
// log topics a deadline burst creates therefore never contend on one
// broker-wide lock. Lock order is always registry before topic.
package broker

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rai/internal/clock"
	"rai/internal/telemetry"
)

// Errors returned by broker operations.
var (
	ErrClosed     = errors.New("broker: closed")
	ErrSubClosed  = errors.New("broker: subscription closed")
	ErrUnknownMsg = errors.New("broker: message not in flight")
	ErrBadName    = errors.New("broker: invalid topic or channel name")
)

// Message is a queued unit of work or log output. The one a consumer
// receives is a value bound to that delivery attempt: the queue keeps
// its own record, so a later redelivery never changes it.
type Message struct {
	ID        uint64
	Topic     string
	Body      []byte
	Timestamp time.Time
	Attempts  int // deliveries so far, this one included
}

// Broker routes messages between topics, channels, and subscriptions.
type Broker struct {
	// mu is the registry lock: it guards topics, closed, and
	// backlogLimits. It is a read lock on the hot path (topic lookup)
	// and a write lock only for topic create/delete/GC.
	mu            sync.RWMutex
	topics        map[string]*topic
	closed        bool
	backlogLimits map[string]int

	nextID atomic.Uint64
	clk    clock.Clock
	tel    brokerTelemetry
}

// brokerTelemetry caches broker-wide instruments so the hot path never
// re-resolves them by name. All fields are nil (no-op) when telemetry
// is off. Per-topic-class publish/deliver counters live on each topic,
// resolved once at topic creation.
type brokerTelemetry struct {
	reg     *telemetry.Registry
	ack     *telemetry.Counter
	requeue *telemetry.Counter
	latency *telemetry.HDRHistogram
}

// Option configures a Broker.
type Option func(*Broker)

// WithClock substitutes the time source (virtual clock in simulations).
func WithClock(c clock.Clock) Option { return func(b *Broker) { b.clk = c } }

// WithTelemetry instruments the broker on reg: publish/deliver/ack/
// requeue counters labeled by topic class, a delivery-latency histogram
// (publish to hand-off), and a live topic-count gauge. Per-channel
// depth gauges are opt-in via ExportQueueDepth, since only the caller
// knows which channels are long-lived.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(b *Broker) {
		b.tel.reg = reg
		b.tel.ack = reg.Counter("rai_broker_ack_total", "messages acknowledged")
		b.tel.requeue = reg.Counter("rai_broker_requeue_total", "messages handed back for redelivery")
		b.tel.latency = reg.Histogram("rai_broker_delivery_latency_seconds",
			"time from publish to delivery to a subscriber")
		reg.GaugeFunc("rai_broker_topics", "live topics (ephemeral log topics included)", func() float64 {
			b.mu.RLock()
			defer b.mu.RUnlock()
			return float64(len(b.topics))
		})
	}
}

// ExportQueueDepth registers a rai_broker_queue_depth gauge tracking
// the undelivered backlog of one topic/channel. Call it for long-lived
// channels only (e.g. rai/tasks) — never per-job log topics. It is a
// no-op on a broker built without WithTelemetry.
func (b *Broker) ExportQueueDepth(topicName, channelName string) {
	if b.tel.reg == nil {
		return
	}
	b.tel.reg.GaugeFunc("rai_broker_queue_depth", "undelivered messages queued on the channel",
		func() float64 { return float64(b.Depth(topicName, channelName)) },
		telemetry.L("topic", topicName), telemetry.L("channel", channelName))
}

// SetBacklogLimit caps the no-subscriber backlog of one topic: once the
// backlog holds n messages, the oldest is dropped for each new publish.
// The daemons set it on the rai.telemetry topic so an absent collector
// cannot grow broker memory without bound — telemetry is droppable by
// design, job traffic is not, so rai/tasks never gets a limit.
func (b *Broker) SetBacklogLimit(topicName string, n int) {
	b.mu.Lock()
	if b.backlogLimits == nil {
		b.backlogLimits = map[string]int{}
	}
	b.backlogLimits[topicName] = n
	t := b.topics[topicName]
	b.mu.Unlock()
	if t != nil {
		t.mu.Lock()
		t.backlogLimit = n
		t.mu.Unlock()
	}
}

// topicClass collapses per-job names so metric label cardinality stays
// bounded: every log_${job_id}#ch topic reports as "log".
func topicClass(name string) string {
	if strings.HasPrefix(name, "log_") || isEphemeralName(name) {
		return "log"
	}
	return name
}

// New creates an empty broker.
func New(opts ...Option) *Broker {
	b := &Broker{topics: map[string]*topic{}, clk: clock.Real{}}
	for _, o := range opts {
		o(b)
	}
	return b
}

// topic is one shard: its mutex guards every channel, queue, and
// subscription attached to it. dead marks a topic that has been removed
// from the registry (GC or Close); a caller that looked it
// up before removal must retry against the registry.
type topic struct {
	name      string
	ephemeral bool

	mu           sync.Mutex
	dead         bool
	channels     map[string]*channel
	backlog      ring
	backlogLimit int

	// Per-class counters, resolved once at creation (nil without
	// telemetry). The registry dedupes, so topics of one class share the
	// underlying series.
	pub *telemetry.Counter
	del *telemetry.Counter
}

type channel struct {
	name      string
	topic     string
	ephemeral bool
	queue     ring
	subs      []*Subscription
	rr        int // round-robin cursor: index of the next subscriber to try
}

// Subscription is one consumer attached to a topic/channel. All mutable
// state is guarded by t.mu.
type Subscription struct {
	b           *Broker
	t           *topic
	ch          *channel
	topicName   string
	channelName string
	c           chan *Message
	maxInFlight int
	inFlight    map[uint64]*Message
	closed      bool
}

// validName enforces the queue-route naming used throughout RAI.
func validName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '_' || r == '-' || r == '.' || r == '#':
		default:
			return false
		}
	}
	return true
}

func isEphemeralName(s string) bool { return strings.Contains(s, "#") }

// getTopic returns the live topic named name, creating it if needed.
// The fast path is a registry read lock and one map lookup.
func (b *Broker) getTopic(name string) (*topic, error) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, ErrClosed
	}
	t := b.topics[name]
	b.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	t, ok := b.topics[name]
	if !ok {
		t = &topic{
			name:         name,
			ephemeral:    isEphemeralName(name),
			channels:     map[string]*channel{},
			backlogLimit: b.backlogLimits[name],
		}
		if b.tel.reg != nil {
			class := topicClass(name)
			t.pub = b.tel.reg.Counter("rai_broker_publish_total", "messages published", telemetry.L("topic", class))
			t.del = b.tel.reg.Counter("rai_broker_deliver_total", "messages delivered to subscribers", telemetry.L("topic", class))
		}
		b.topics[name] = t
	}
	return t, nil
}

// lockLiveTopic returns the topic with its mutex held, retrying when it
// lost a race with garbage collection (looked up, then GC'd, then
// locked). The caller must unlock t.mu.
func (b *Broker) lockLiveTopic(name string) (*topic, error) {
	for {
		t, err := b.getTopic(name)
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		if !t.dead {
			return t, nil
		}
		t.mu.Unlock()
	}
}

// Publish enqueues body on the named topic, fanning it out to every
// existing channel (or to the topic backlog when none exists yet), and
// returns the id the broker assigned. The engine is in memory, so ctx
// only gates entry — there is no I/O to cancel.
func (b *Broker) Publish(ctx context.Context, topicName string, body []byte) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !validName(topicName) {
		return 0, fmt.Errorf("%w: topic %q", ErrBadName, topicName)
	}
	t, err := b.lockLiveTopic(topicName)
	if err != nil {
		return 0, err
	}
	defer t.mu.Unlock()
	t.pub.Inc()
	// One copy of the caller's buffer; every channel's Message shares it
	// (only Attempts tracking is per channel, so the struct is copied,
	// never the body).
	msg := &Message{ID: b.nextID.Add(1), Body: append([]byte(nil), body...), Timestamp: b.clk.Now(), Topic: topicName}
	if len(t.channels) == 0 {
		t.backlog.pushBack(msg)
		if t.backlogLimit > 0 && t.backlog.len() > t.backlogLimit {
			t.backlog.popFront()
		}
		return msg.ID, nil
	}
	first := true
	for _, ch := range t.channels {
		m := msg
		if !first {
			cp := *msg
			m = &cp
		}
		first = false
		ch.queue.pushBack(m)
		b.dispatchLocked(t, ch)
	}
	return msg.ID, nil
}

// Subscribe attaches a consumer to topic/channel, creating both as
// needed. maxInFlight bounds unacknowledged deliveries (the paper's
// "constraints on the number of jobs that can be executed concurrently")
// and sizes the delivery buffer exactly — the broker never holds more
// than maxInFlight undrained deliveries per subscription, so no extra
// slack is allocated for the thousands of ephemeral log subscriptions a
// busy term creates. Like Publish, ctx only gates entry.
func (b *Broker) Subscribe(ctx context.Context, topicName, channelName string, maxInFlight int) (Consumer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !validName(topicName) || !validName(channelName) {
		return nil, fmt.Errorf("%w: %q/%q", ErrBadName, topicName, channelName)
	}
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	t, err := b.lockLiveTopic(topicName)
	if err != nil {
		return nil, err
	}
	defer t.mu.Unlock()
	ch, ok := t.channels[channelName]
	if !ok {
		ch = &channel{name: channelName, topic: topicName, ephemeral: isEphemeralName(channelName) || t.ephemeral}
		t.channels[channelName] = ch
		// First channel drains the topic backlog.
		for m := t.backlog.popFront(); m != nil; m = t.backlog.popFront() {
			ch.queue.pushBack(m)
		}
	}
	sub := &Subscription{
		b:           b,
		t:           t,
		ch:          ch,
		topicName:   topicName,
		channelName: channelName,
		c:           make(chan *Message, maxInFlight),
		maxInFlight: maxInFlight,
		inFlight:    map[uint64]*Message{},
	}
	ch.subs = append(ch.subs, sub)
	b.dispatchLocked(t, ch)
	return sub, nil
}

// dispatchLocked hands queued messages to subscribers with spare
// in-flight capacity, round-robin. Caller holds t.mu.
func (b *Broker) dispatchLocked(t *topic, ch *channel) {
	for ch.queue.len() > 0 && len(ch.subs) > 0 {
		delivered := false
		for probe := 0; probe < len(ch.subs); probe++ {
			sub := ch.subs[(ch.rr+probe)%len(ch.subs)]
			// The buffer check cannot race: all sends happen under t.mu, so
			// len(sub.c) only shrinks concurrently. It is full only if the
			// consumer settled a message while its redelivery sat undrained —
			// then the message simply stays queued for the next dispatch.
			if sub.closed || len(sub.inFlight) >= sub.maxInFlight || len(sub.c) == cap(sub.c) {
				continue
			}
			msg := ch.queue.popFront()
			msg.Attempts++
			sub.inFlight[msg.ID] = msg
			// The consumer gets a copy bound to this attempt: msg is the
			// queue's record, and Attempts moves on under t.mu at the next
			// redelivery while the holder reads without the lock.
			attempt := *msg
			sub.c <- &attempt
			t.del.Inc()
			if b.tel.latency != nil {
				b.tel.latency.Observe(b.clk.Now().Sub(msg.Timestamp).Seconds())
			}
			ch.rr = (ch.rr + probe + 1) % len(ch.subs)
			delivered = true
			break
		}
		if !delivered {
			return // everyone is at capacity
		}
	}
}

// C is the delivery channel. It is closed when the subscription closes.
func (s *Subscription) C() <-chan *Message { return s.c }

// Ack marks a delivered message as done; only m.ID is read. It takes
// only the owning topic's lock — acks on rai/tasks never contend with
// log traffic. Settlement is in memory, so there is nothing to cancel.
func (s *Subscription) Ack(_ context.Context, m *Message) error {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.closed {
		return ErrSubClosed
	}
	if _, ok := s.inFlight[m.ID]; !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownMsg, m.ID)
	}
	delete(s.inFlight, m.ID)
	s.b.tel.ack.Inc()
	s.b.dispatchLocked(s.t, s.ch)
	return nil
}

// Requeue returns a delivered message to the front of the channel queue
// for redelivery (possibly to another subscriber).
func (s *Subscription) Requeue(_ context.Context, m *Message) error {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.closed {
		return ErrSubClosed
	}
	msg, ok := s.inFlight[m.ID]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownMsg, m.ID)
	}
	delete(s.inFlight, m.ID)
	s.b.tel.requeue.Inc()
	s.ch.queue.pushFront(msg)
	s.b.dispatchLocked(s.t, s.ch)
	return nil
}

// Close detaches the subscription. In-flight and undelivered messages are
// requeued; ephemeral channels/topics with no remaining consumers are
// garbage collected (the paper's log_${job_id} cleanup).
func (s *Subscription) Close() error {
	t := s.t
	t.mu.Lock()
	if s.closed {
		t.mu.Unlock()
		return nil
	}
	s.closeLocked()
	gc := t.ephemeral && len(t.channels) == 0 && !t.dead
	t.mu.Unlock()
	if gc {
		s.b.collectTopic(t)
	}
	return nil
}

// closeLocked tears the subscription down under t.mu: undelivered and
// in-flight messages go back to the queue in ID order, the subscriber
// leaves the rotation, and empty ephemeral channels are deleted.
func (s *Subscription) closeLocked() {
	s.closed = true
	ch := s.ch
	// Undrained deliveries are per-attempt copies; the records they were
	// made from are still in inFlight.
drain:
	for {
		select {
		case <-s.c:
		default:
			break drain
		}
	}
	requeue := make([]*Message, 0, len(s.inFlight))
	for _, m := range s.inFlight {
		requeue = append(requeue, m)
	}
	sort.Slice(requeue, func(i, j int) bool { return requeue[i].ID < requeue[j].ID })
	for i := len(requeue) - 1; i >= 0; i-- {
		ch.queue.pushFront(requeue[i])
	}
	// Remove the subscription, keeping the round-robin cursor on the
	// same logical successor: removing an index below the cursor shifts
	// every later subscriber down by one, so the cursor moves with them
	// (otherwise rotation would skip one subscriber per removal,
	// skewing deliveries).
	for i, sub := range ch.subs {
		if sub == s {
			ch.subs = append(ch.subs[:i], ch.subs[i+1:]...)
			if i < ch.rr {
				ch.rr--
			}
			break
		}
	}
	if len(ch.subs) == 0 {
		ch.rr = 0
	} else {
		ch.rr %= len(ch.subs)
	}
	if ch.ephemeral && len(ch.subs) == 0 {
		delete(s.t.channels, ch.name)
	} else {
		s.b.dispatchLocked(s.t, ch)
	}
	close(s.c)
	s.inFlight = nil
}

// collectTopic deletes t from the registry if it is still the
// registered, empty, ephemeral topic. Lock order: registry then topic,
// so the caller must not hold t.mu.
func (b *Broker) collectTopic(t *topic) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.dead && len(t.channels) == 0 && b.topics[t.name] == t {
		t.dead = true
		delete(b.topics, t.name)
	}
}

// Close shuts the broker down; all subscriptions are closed.
func (b *Broker) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for _, t := range b.topics {
		t.mu.Lock()
		t.dead = true
		for _, ch := range t.channels {
			for _, sub := range ch.subs {
				sub.closed = true
				close(sub.c)
			}
		}
		t.mu.Unlock()
	}
	b.topics = map[string]*topic{}
	return nil
}

// TopicStats is a snapshot of one topic for monitoring.
type TopicStats struct {
	Topic    string
	Backlog  int // messages waiting for a first channel
	Channels []ChannelStats
}

// ChannelStats is a snapshot of one channel.
type ChannelStats struct {
	Channel     string
	Depth       int // queued, not yet delivered
	InFlight    int
	Subscribers int
}

// Stats returns a deterministic (name-sorted) snapshot of the broker.
// Topics are locked one at a time, so the snapshot is per-topic
// consistent, not globally atomic — the same guarantee a scrape of a
// live system can honestly make.
func (b *Broker) Stats() []TopicStats {
	b.mu.RLock()
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.RUnlock()
	out := make([]TopicStats, 0, len(topics))
	for _, t := range topics {
		t.mu.Lock()
		if t.dead {
			t.mu.Unlock()
			continue
		}
		ts := TopicStats{Topic: t.name, Backlog: t.backlog.len()}
		for cname, ch := range t.channels {
			inFlight := 0
			for _, sub := range ch.subs {
				inFlight += len(sub.inFlight)
			}
			ts.Channels = append(ts.Channels, ChannelStats{
				Channel: cname, Depth: ch.queue.len(), InFlight: inFlight, Subscribers: len(ch.subs),
			})
		}
		t.mu.Unlock()
		sort.Slice(ts.Channels, func(i, j int) bool { return ts.Channels[i].Channel < ts.Channels[j].Channel })
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}

// Depth reports the total undelivered message count for topic/channel
// (backlog included when the channel does not exist yet).
func (b *Broker) Depth(topicName, channelName string) int {
	b.mu.RLock()
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ch, ok := t.channels[channelName]
	if !ok {
		return t.backlog.len()
	}
	return ch.queue.len()
}
