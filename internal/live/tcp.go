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
// network. Node loops hand envelopes to its bounded outbound buffer without
// blocking (a full buffer sheds them, as a full inbox does in-process), and
// a writer goroutine encodes them as wire frames.
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
	// out is the outbound buffer, of capacity Config.QueueCapacity. It is
	// never closed: node loops may still send on it when Close runs.
	out  chan Envelope
	quit chan struct{} // closed by Close to stop the writer
	done chan struct{} // closed by the writer on exit

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
		out:  make(chan Envelope, c.cfg.QueueCapacity),
		quit: make(chan struct{}),
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

// writeLoop drains the outbound buffer onto the wire. A write error marks
// the link down and starts the redial cycle: each subsequent envelope
// either rides a dial attempt (when the backoff window has elapsed) or is
// dropped and counted. The buffer keeps absorbing offers the whole time, so
// the sending node is never blocked by a dead peer. Once Close signals
// quit, the envelopes buffered at that moment are written while the link
// stays up, without redialing, and then the connection closes.
func (p *Peer) writeLoop(conn net.Conn) {
	defer close(p.done)
	bw := bufio.NewWriter(conn)
	buf := make([]byte, 0, 64)
	backoff := reconnectBase
	var nextDial time.Time // zero: dial immediately on the next envelope
	write := func(e Envelope) {
		frame, err := transport.AppendWire(buf[:0], transport.BeaconMsg(e.From, e.To, e.SentAt, e.MinTransit, e.B))
		if err != nil {
			return
		}
		buf = frame
		_, werr := bw.Write(frame)
		// Flush when the buffer is momentarily empty; back-to-back sends
		// batch into one segment.
		if werr == nil && len(p.out) == 0 {
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
	for {
		var e Envelope
		select {
		case e = <-p.out:
		case <-p.quit:
			for k := len(p.out); k > 0 && conn != nil; k-- {
				write(<-p.out)
			}
			if conn != nil {
				bw.Flush()
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
				continue // Close ran meanwhile; quit ends the loop
			}
			conn = c2
			bw.Reset(conn)
			p.down.Store(false)
			p.reconnects.Add(1)
			backoff = reconnectBase
		}
		write(e)
	}
}

// Close shuts the link down and returns once the writer has exited: the
// envelopes buffered at the call are written while the link takes them,
// then the connection closes. A write deadline of reconnectDialTimeout
// bounds that on a stalled link. Envelopes offered after Close may stay
// unwritten. Idempotent.
func (p *Peer) Close() {
	p.connMu.Lock()
	already := p.closed
	p.closed = true
	conn := p.conn
	p.connMu.Unlock()
	if already {
		return
	}
	close(p.quit)
	if conn != nil {
		conn.SetWriteDeadline(time.Now().Add(reconnectDialTimeout))
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
