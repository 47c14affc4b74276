package brokerd

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	"rai/internal/broker"
	"rai/internal/telemetry"
)

// Server serves a broker engine over TCP.
type Server struct {
	ctx    context.Context
	b      *broker.Broker
	ln     net.Listener
	logf   func(format string, args ...any)
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	connGauge *telemetry.Gauge
	ops       map[string]*telemetry.Counter
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithLogf sets the server's log function (default: log.Printf).
func WithLogf(f func(string, ...any)) ServerOption { return func(s *Server) { s.logf = f } }

// WithTelemetry instruments the wire layer on reg: a live connection
// gauge and per-op request counters. The broker engine itself is
// instrumented separately via broker.WithTelemetry.
func WithTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *Server) {
		s.connGauge = reg.Gauge("rai_brokerd_connections", "open client connections")
		s.ops = map[string]*telemetry.Counter{}
		for _, op := range []string{OpPing, OpPub, OpSub, OpAck, OpReq} {
			s.ops[op] = reg.Counter("rai_brokerd_ops_total", "wire operations served", telemetry.L("op", op))
		}
	}
}

// NewServer starts serving b on addr (e.g. "127.0.0.1:0") and returns
// once the listener is bound. ctx is the context of every engine call
// made on behalf of a connection (a connection has none of its own); it
// does not stop the server — Close does.
func NewServer(ctx context.Context, b *broker.Broker, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ctx: ctx, b: b, ln: ln, logf: log.Printf, conns: map[net.Conn]struct{}{}}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and drops all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one client connection: a read loop executing
// commands, plus (once subscribed) a pump goroutine streaming
// deliveries. A frame that does not decode ends the connection
// without a reply.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.connGauge.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		s.connGauge.Add(-1)
	}()

	br := bufio.NewReaderSize(conn, 32<<10)
	fw := newFrameWriter(conn)
	reply := func(seq uint64, err error, msgID uint64) {
		if err != nil {
			_ = fw.write(&Frame{Op: OpErr, Seq: seq, Error: err.Error()})
			return
		}
		_ = fw.write(&Frame{Op: OpOK, Seq: seq, MsgID: msgID})
	}

	var (
		sub      broker.Consumer
		pumpDone chan struct{}
	)
	defer func() {
		if sub != nil {
			sub.Close()
			<-pumpDone
		}
	}()

	for {
		f, err := DecodeFrame(br)
		if err != nil {
			return // disconnect (EOF or broken frame)
		}
		if s.ops != nil {
			s.ops[f.Op].Inc() // nil map entry (unknown op) is a no-op
		}
		switch f.Op {
		case OpPing:
			reply(f.Seq, nil, 0)
		case OpPub:
			id, err := s.b.Publish(s.ctx, f.Topic, f.Body)
			reply(f.Seq, err, id)
		case OpSub:
			if sub != nil {
				reply(f.Seq, errors.New("brokerd: connection already subscribed"), 0)
				continue
			}
			newSub, err := s.b.Subscribe(s.ctx, f.Topic, f.Channel, f.MaxInFlight)
			if err != nil {
				reply(f.Seq, err, 0)
				continue
			}
			sub = newSub
			pumpDone = make(chan struct{})
			go func() {
				defer close(pumpDone)
				for m := range sub.C() {
					// A burst of queued deliveries coalesces into one flush:
					// while more messages are already waiting, keep appending
					// to the write buffer.
					if err := fw.writeHint(&Frame{
						Op: OpMsg, MsgID: m.ID, Topic: m.Topic,
						Body: m.Body, Attempts: m.Attempts, Time: m.Timestamp,
					}, len(sub.C()) > 0); err != nil {
						return
					}
				}
			}()
			reply(f.Seq, nil, 0)
		case OpAck, OpReq:
			if sub == nil {
				reply(f.Seq, errors.New("brokerd: not subscribed"), 0)
				continue
			}
			// The engine settles by id and answers ErrUnknownMsg for one
			// that is not in flight on this subscription.
			m := &broker.Message{ID: f.MsgID}
			if f.Op == OpAck {
				reply(f.Seq, sub.Ack(s.ctx, m), 0)
			} else {
				reply(f.Seq, sub.Requeue(s.ctx, m), 0)
			}
		default:
			reply(f.Seq, fmt.Errorf("brokerd: unknown op %q", f.Op), 0)
		}
	}
}
