package live

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Reconnect policy for outbound peer links: after a write failure the link
// is marked down and redialed with exponential backoff, starting at
// reconnectBase and capped at reconnectMax. Dial attempts ride on the
// writer goroutine's envelope cadence (beacons are periodic, so there is
// always a next attempt) and each is bounded by reconnectDialTimeout, so a
// dead peer never blocks the state machine — envelopes offered while the
// link is down are dropped and counted.
const (
	reconnectBase        = 50 * time.Millisecond
	reconnectMax         = 5 * time.Second
	reconnectDialTimeout = 2 * time.Second
)

// Peer is one outbound TCP link to another process hosting part of the
// network. Envelopes queue in a bounded SendQueue (same back-pressure policy
// as in-process edges) and a writer goroutine encodes them as wire frames.
// Connections are unidirectional by convention: each process dials every
// peer it sends to and serves a listener for inbound traffic, which keeps
// routing explicit — the dialer states which node ids the connection reaches
// — instead of learned from traffic. A failed link self-heals: the writer
// redials with capped exponential backoff while shedding (and counting) the
// beacons that arrive in between; Stats surfaces both the reconnect count
// and the down state.
type Peer struct {
	c    *Cluster
	addr string
	q    *SendQueue
	done chan struct{}

	// connMu guards conn (the live connection, nil while down) against the
	// race between the writer goroutine swapping connections and Close
	// needing to unblock an in-flight write.
	connMu sync.Mutex
	conn   net.Conn
	closed bool

	down       atomic.Bool
	reconnects atomic.Uint64
	downDrops  atomic.Uint64 // envelopes shed while the link was down
}

// ConnectPeer dials addr, performs the hello exchange, and routes beacons
// addressed to the given remote node ids through the connection. The remote
// must be a Cluster with the same total N serving ServePeers on addr. The
// initial dial is synchronous — a misconfigured deployment fails here, at
// attach time — but once attached the link redials on its own after
// failures.
func (c *Cluster) ConnectPeer(addr string, remoteNodes []int) (*Peer, error) {
	p := &Peer{
		c:    c,
		addr: addr,
		q:    NewSendQueue(c.cfg.QueueCapacity, c.cfg.QueuePolicy),
		done: make(chan struct{}),
	}
	conn, err := p.dial()
	if err != nil {
		return nil, err
	}
	p.conn = conn
	c.peerMu.Lock()
	c.peers = append(c.peers, p)
	for _, id := range remoteNodes {
		c.routes[id] = p
	}
	c.peerMu.Unlock()
	go p.writeLoop(conn)
	return p, nil
}

// dial establishes and validates one connection: TCP connect plus the hello
// exchange, both bounded by reconnectDialTimeout.
func (p *Peer) dial() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", p.addr, reconnectDialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(reconnectDialTimeout))
	if err := transport.WriteWire(conn, transport.HelloMsg(p.c.cfg.N)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("live: hello send: %w", err)
	}
	hello, err := transport.ReadWire(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("live: hello recv: %w", err)
	}
	if err := checkHello(hello, p.c.cfg.N); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// checkHello validates a handshake frame against this cluster's shape.
func checkHello(m transport.WireMsg, n int) error {
	switch {
	case m.Kind != transport.WireHello:
		return fmt.Errorf("live: peer sent frame kind %d before hello", m.Kind)
	case m.Version != transport.WireVersion:
		return fmt.Errorf("live: peer speaks wire version %d, want %d", m.Version, transport.WireVersion)
	case m.N != n:
		return fmt.Errorf("live: peer configured for %d nodes, this cluster has %d", m.N, n)
	}
	return nil
}

// swapConn publishes the writer's current connection so Close can unblock an
// in-flight write. Returns false when the peer closed meanwhile — the caller
// must discard the connection and exit.
func (p *Peer) swapConn(conn net.Conn) bool {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if p.closed {
		return false
	}
	p.conn = conn
	return true
}

// writeLoop drains the peer queue onto the wire. A write error marks the
// link down and starts the redial cycle: each subsequent envelope either
// rides a dial attempt (when the backoff window has elapsed) or is dropped
// and counted. The queue keeps absorbing offers the whole time, so the
// sending node is never blocked by a dead peer.
func (p *Peer) writeLoop(conn net.Conn) {
	defer close(p.done)
	bw := bufio.NewWriter(conn)
	buf := make([]byte, 0, 64)
	backoff := reconnectBase
	var nextDial time.Time // zero: dial immediately on the next envelope
	for {
		e, ok := p.q.Pop()
		if !ok {
			if conn != nil {
				conn.Close()
			}
			return
		}
		if conn == nil {
			if time.Now().Before(nextDial) {
				p.downDrops.Add(1)
				continue
			}
			c2, err := p.dial()
			if err != nil {
				p.downDrops.Add(1)
				nextDial = time.Now().Add(backoff)
				backoff *= 2
				if backoff > reconnectMax {
					backoff = reconnectMax
				}
				continue
			}
			if !p.swapConn(c2) {
				c2.Close()
				continue // queue is closed; next Pop returns !ok
			}
			conn = c2
			bw.Reset(conn)
			p.down.Store(false)
			p.reconnects.Add(1)
			backoff = reconnectBase
		}
		frame, err := transport.AppendWire(buf[:0], transport.BeaconMsg(e.From, e.To, e.SentAt, e.MinTransit, e.B))
		if err != nil {
			continue
		}
		buf = frame
		_, werr := bw.Write(frame)
		// Flush when the queue is momentarily empty; back-to-back sends
		// batch into one segment.
		if werr == nil && p.q.Len() == 0 {
			werr = bw.Flush()
		}
		if werr != nil {
			conn.Close()
			conn = nil
			p.swapConn(nil)
			p.down.Store(true)
			p.downDrops.Add(1)
			nextDial = time.Time{} // first retry rides the next envelope
			backoff = reconnectBase
		}
	}
}

// Down reports whether the link is currently disconnected and backing off.
func (p *Peer) Down() bool { return p.down.Load() }

// Reconnects returns how many times the link has been re-established.
func (p *Peer) Reconnects() uint64 { return p.reconnects.Load() }

// Close shuts the link down: the queue stops accepting, the writer drains
// out, and the connection closes. Idempotent.
func (p *Peer) Close() {
	p.connMu.Lock()
	already := p.closed
	p.closed = true
	conn := p.conn
	p.connMu.Unlock()
	if already {
		return
	}
	p.q.Close()
	if conn != nil {
		// Unblock a writer parked inside a TCP write on a stalled link.
		conn.Close()
	}
	<-p.done
}

// ServePeers accepts inbound peer connections on ln and delivers their
// beacon frames to owned-node inboxes until the listener closes (close it to
// stop; Stop does not know about the listener). Each accepted connection
// performs the hello exchange and is then receive-only.
func (c *Cluster) ServePeers(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go c.servePeerConn(conn)
	}
}

func (c *Cluster) servePeerConn(conn net.Conn) {
	defer conn.Close()
	hello, err := transport.ReadWire(conn)
	if err != nil || checkHello(hello, c.cfg.N) != nil {
		// A refused frame or a hello for another cluster shape is a
		// rejected frame; a connection closed before its hello is not.
		if err == nil || errors.Is(err, transport.ErrInvalidFrame) {
			c.rejected.Add(1)
		}
		return
	}
	if err := transport.WriteWire(conn, transport.HelloMsg(c.cfg.N)); err != nil {
		return
	}
	// Unblock the blocking ReadWire below when the cluster stops.
	stopDone := make(chan struct{})
	defer close(stopDone)
	go func() {
		select {
		case <-c.stopCh:
			conn.Close()
		case <-stopDone:
		}
	}()
	br := bufio.NewReader(conn)
	for {
		m, err := transport.ReadWire(br)
		if err != nil {
			// Clean EOF, stop-triggered close and frame corruption all end
			// the connection the same way; the dialer's periodic beacons are
			// the retry mechanism. Rejected frames are counted.
			if errors.Is(err, transport.ErrInvalidFrame) {
				c.rejected.Add(1)
			}
			return
		}
		if m.Kind != transport.WireBeacon {
			continue
		}
		// The receiver credits its own configured link transit, never the
		// sender's declared one: a peer could otherwise inflate M through
		// the transit credit.
		c.deliverLocal(Envelope{
			From: m.From, To: m.To,
			SentAt: m.SentAt, MinTransit: c.minTransit, B: m.Beacon,
		})
	}
}
