package live

import "repro/internal/transport"

// Envelope is one in-flight live-mode beacon: the wire frame's fields in
// their in-process form (see transport.BeaconMsg for the on-wire encoding).
type Envelope struct {
	From, To   int
	SentAt     float64
	MinTransit float64
	B          transport.Beacon
}
