package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Wire codec for the live deployment mode (internal/live): beacons crossing
// OS-process boundaries travel as length-prefixed binary frames over TCP.
// The vocabulary is deliberately the simulator's — a frame carries exactly
// the fields of a Beacon plus the Delivery metadata a receiver may
// legitimately use (sender, send time, certified minimum transit) — so a
// message observed on the wire corresponds one-to-one to a trace record and
// to a simulated delivery.
//
// Frame layout (all integers big-endian):
//
//	uint32  payload length (bytes that follow; ≤ MaxFramePayload)
//	uint8   frame kind (WireHello | WireBeacon)
//	...     kind-specific fixed-size fields
//
// Hello payload: uint8 protocol version, uint32 cluster size N. Peers
// exchange hellos before any traffic and reject mismatched versions or
// sizes, so two processes configured for different networks fail fast
// instead of cross-routing node ids.
//
// Beacon payload: uint32 from, uint32 to, then sentAt, minTransit, L, M as
// IEEE-754 bits (math.Float64bits). Floats travel as raw bits, not decimal,
// so a beacon decodes to exactly the float64 the sender held — the property
// the byte-identical trace/replay contract needs end to end. A beacon's
// floats must be finite and its transit non-negative: both ends reject
// anything else, since one M = +Inf would pin its receiver in fast mode
// and max-flooding would spread it.

// Wire frame kinds.
const (
	// WireHello is the connection handshake frame.
	WireHello byte = 1
	// WireBeacon is one beacon delivery.
	WireBeacon byte = 2
)

// WireVersion is the current protocol version, carried in hello frames.
const WireVersion byte = 1

// ErrInvalidFrame is wrapped by every ReadWire error that rejects the bytes
// received (as opposed to an I/O error), so a receiver can count them.
var ErrInvalidFrame = errors.New("transport: invalid wire frame")

// MaxFramePayload bounds the declared payload length a reader accepts.
// Every current frame is tiny; the bound exists so a corrupt or hostile
// length prefix cannot drive an allocation.
const MaxFramePayload = 256

const (
	helloPayloadLen  = 1 + 1 + 4
	beaconPayloadLen = 1 + 4 + 4 + 8 + 8 + 8 + 8
)

// WireMsg is one decoded frame.
type WireMsg struct {
	// Kind is WireHello or WireBeacon.
	Kind byte
	// Version and N are the hello fields (valid when Kind == WireHello).
	Version byte
	N       int
	// From, To, SentAt, MinTransit and Beacon are the beacon fields (valid
	// when Kind == WireBeacon). SentAt is the sender's sim-time clock at
	// send; MinTransit is the certified minimum transit of the link, which
	// the receiver's estimate layer credits exactly as in the simulator.
	From, To   int
	SentAt     float64
	MinTransit float64
	Beacon     Beacon
}

// HelloMsg builds a handshake frame for a cluster of n nodes.
func HelloMsg(n int) WireMsg {
	return WireMsg{Kind: WireHello, Version: WireVersion, N: n}
}

// BeaconMsg builds a beacon frame.
func BeaconMsg(from, to int, sentAt, minTransit float64, b Beacon) WireMsg {
	return WireMsg{Kind: WireBeacon, From: from, To: to, SentAt: sentAt, MinTransit: minTransit, Beacon: b}
}

// checkBeacon rejects beacon values no honest sender produces: a
// non-finite send time, transit or clock, or a negative transit.
func (m WireMsg) checkBeacon() error {
	for _, v := range [...]float64{m.SentAt, m.MinTransit, m.Beacon.L, m.Beacon.M} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("beacon %d→%d carries a non-finite value", m.From, m.To)
		}
	}
	if m.MinTransit < 0 {
		return fmt.Errorf("beacon %d→%d has negative transit %v", m.From, m.To, m.MinTransit)
	}
	return nil
}

// AppendWire appends the frame encoding of m (length prefix included) to
// buf and returns the extended slice. It is the allocation-free core of
// WriteWire; senders with a scratch buffer call it directly.
func AppendWire(buf []byte, m WireMsg) ([]byte, error) {
	switch m.Kind {
	case WireHello:
		if m.N < 0 || m.N > math.MaxUint32 {
			return buf, fmt.Errorf("transport: hello frame with invalid N %d", m.N)
		}
		buf = binary.BigEndian.AppendUint32(buf, helloPayloadLen)
		buf = append(buf, WireHello, m.Version)
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.N))
		return buf, nil
	case WireBeacon:
		if m.From < 0 || m.From > math.MaxUint32 || m.To < 0 || m.To > math.MaxUint32 {
			return buf, fmt.Errorf("transport: beacon frame with invalid endpoint %d→%d", m.From, m.To)
		}
		if err := m.checkBeacon(); err != nil {
			return buf, fmt.Errorf("transport: %w", err)
		}
		buf = binary.BigEndian.AppendUint32(buf, beaconPayloadLen)
		buf = append(buf, WireBeacon)
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.From))
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.To))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.SentAt))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.MinTransit))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.Beacon.L))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.Beacon.M))
		return buf, nil
	default:
		return buf, fmt.Errorf("transport: unknown wire frame kind %d", m.Kind)
	}
}

// WriteWire writes one frame to w.
func WriteWire(w io.Writer, m WireMsg) error {
	buf, err := AppendWire(make([]byte, 0, 4+beaconPayloadLen), m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadWire reads one frame from r. io.EOF is returned untouched on a clean
// close between frames; a close mid-frame surfaces as ErrUnexpectedEOF.
// Malformed frames and beacons with non-finite values or a negative transit
// are rejected with an error wrapping ErrInvalidFrame.
func ReadWire(r io.Reader) (WireMsg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return WireMsg{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFramePayload {
		return WireMsg{}, fmt.Errorf("%w: payload length %d out of range (1..%d)", ErrInvalidFrame, n, MaxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return WireMsg{}, err
	}
	switch payload[0] {
	case WireHello:
		if len(payload) != helloPayloadLen {
			return WireMsg{}, fmt.Errorf("%w: hello frame has %d payload bytes, want %d", ErrInvalidFrame, len(payload), helloPayloadLen)
		}
		return WireMsg{
			Kind:    WireHello,
			Version: payload[1],
			N:       int(binary.BigEndian.Uint32(payload[2:])),
		}, nil
	case WireBeacon:
		if len(payload) != beaconPayloadLen {
			return WireMsg{}, fmt.Errorf("%w: beacon frame has %d payload bytes, want %d", ErrInvalidFrame, len(payload), beaconPayloadLen)
		}
		m := WireMsg{
			Kind:       WireBeacon,
			From:       int(binary.BigEndian.Uint32(payload[1:])),
			To:         int(binary.BigEndian.Uint32(payload[5:])),
			SentAt:     math.Float64frombits(binary.BigEndian.Uint64(payload[9:])),
			MinTransit: math.Float64frombits(binary.BigEndian.Uint64(payload[17:])),
			Beacon: Beacon{
				L: math.Float64frombits(binary.BigEndian.Uint64(payload[25:])),
				M: math.Float64frombits(binary.BigEndian.Uint64(payload[33:])),
			},
		}
		if err := m.checkBeacon(); err != nil {
			return WireMsg{}, fmt.Errorf("%w: %w", ErrInvalidFrame, err)
		}
		return m, nil
	default:
		return WireMsg{}, fmt.Errorf("%w: unknown wire frame kind %d", ErrInvalidFrame, payload[0])
	}
}
