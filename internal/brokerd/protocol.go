// Package brokerd exposes an internal/broker engine over TCP so RAI
// clients and workers on different machines can exchange messages, the
// way the paper's deployment ran a shared queue service between student
// laptops and AWS workers.
//
// The wire protocol is deliberately simple: each frame is a 4-byte
// big-endian length followed by a payload. Requests carry a client
// sequence number that the matching reply echoes, so one connection can
// pipeline publishes while a subscription streams messages.
//
// There is one payload encoding, the compact binary layout in codec.go
// (DESIGN.md §11), spoken from the first byte in both directions. There
// is no negotiation: a peer whose frame does not decode is disconnected
// without a reply.
//
// The client side is Queue (queue.go), the TCP implementation of the
// broker.Queue port: one reconnecting publish connection plus one per
// subscription, because the protocol allows one subscription per
// connection and a subscription ends by closing its connection. Queue
// depth is not on the wire; the autoscaler reads the broker daemon's
// rai_broker_queue_depth gauge from /metrics.
package brokerd

import "time"

// Op codes used on the wire.
const (
	OpPub  = "PUB"  // client -> server: publish Body to Topic
	OpSub  = "SUB"  // client -> server: subscribe Topic/Channel
	OpAck  = "ACK"  // client -> server: acknowledge MsgID
	OpReq  = "REQ"  // client -> server: requeue MsgID
	OpPing = "PING" // client -> server: liveness check
	OpOK   = "OK"   // server -> client: success reply to Seq
	OpErr  = "ERR"  // server -> client: failure reply to Seq
	OpMsg  = "MSG"  // server -> client: delivered message
)

// Frame is the single wire message shape for both directions.
type Frame struct {
	Op      string
	Seq     uint64
	Topic   string
	Channel string
	// MaxInFlight applies to SUB.
	MaxInFlight int
	// MsgID identifies the message for ACK/REQ and deliveries.
	MsgID    uint64
	Body     []byte
	Attempts int
	Time     time.Time
	Error    string
}

// maxFrameSize bounds a single frame (a project archive travels through
// the object store, not the queue, so frames stay small; 16 MiB is ample
// and caps memory per connection).
const maxFrameSize = 16 << 20
