package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func TestWireBeaconRoundTrip(t *testing.T) {
	cases := []WireMsg{
		BeaconMsg(0, 1, 0, 0, Beacon{}),
		BeaconMsg(7, 123456, 1.25, 0.05, Beacon{L: 3.141592653589793, M: 2.718281828459045}),
		BeaconMsg(1, 2, math.Nextafter(1, 2), 1e-300, Beacon{L: -0.0, M: math.MaxFloat64}),
	}
	var buf bytes.Buffer
	for _, m := range cases {
		if err := WriteWire(&buf, m); err != nil {
			t.Fatalf("WriteWire(%+v): %v", m, err)
		}
	}
	for i, want := range cases {
		got, err := ReadWire(&buf)
		if err != nil {
			t.Fatalf("ReadWire #%d: %v", i, err)
		}
		// Bit-exact float comparison: the codec ships IEEE-754 bits, so even
		// -0.0 and subnormals must survive untouched.
		if got.Kind != WireBeacon || got.From != want.From || got.To != want.To ||
			math.Float64bits(got.SentAt) != math.Float64bits(want.SentAt) ||
			math.Float64bits(got.MinTransit) != math.Float64bits(want.MinTransit) ||
			math.Float64bits(got.Beacon.L) != math.Float64bits(want.Beacon.L) ||
			math.Float64bits(got.Beacon.M) != math.Float64bits(want.Beacon.M) {
			t.Fatalf("frame #%d round trip: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadWire(&buf); err != io.EOF {
		t.Fatalf("trailing read: got %v, want io.EOF", err)
	}
}

func TestWireHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWire(&buf, HelloMsg(16)); err != nil {
		t.Fatalf("WriteWire: %v", err)
	}
	got, err := ReadWire(&buf)
	if err != nil {
		t.Fatalf("ReadWire: %v", err)
	}
	if got.Kind != WireHello || got.Version != WireVersion || got.N != 16 {
		t.Fatalf("hello round trip: got %+v", got)
	}
}

func TestWireRejectsCorruptFrames(t *testing.T) {
	// Oversized declared payload.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFramePayload+1)
	buf.Write(hdr[:])
	if _, err := ReadWire(&buf); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized payload: got %v", err)
	}

	// Unknown kind.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 1)
	buf.Write(hdr[:])
	buf.WriteByte(99)
	if _, err := ReadWire(&buf); err == nil || !strings.Contains(err.Error(), "unknown wire frame kind") {
		t.Fatalf("unknown kind: got %v", err)
	}

	// Truncated mid-frame: must not be a clean EOF.
	buf.Reset()
	if err := WriteWire(&buf, BeaconMsg(1, 2, 3, 0.5, Beacon{L: 1})); err != nil {
		t.Fatalf("WriteWire: %v", err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, err := ReadWire(trunc); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: got %v, want io.ErrUnexpectedEOF", err)
	}

	// Wrong payload size for a known kind.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 2)
	buf.Write(hdr[:])
	buf.Write([]byte{WireBeacon, 0})
	if _, err := ReadWire(&buf); err == nil || !strings.Contains(err.Error(), "payload bytes") {
		t.Fatalf("short beacon payload: got %v", err)
	}
}

func TestWireRejectsInvalidEncode(t *testing.T) {
	if _, err := AppendWire(nil, WireMsg{Kind: 42}); err == nil {
		t.Fatal("unknown kind encoded without error")
	}
	if _, err := AppendWire(nil, BeaconMsg(-1, 2, 0, 0, Beacon{})); err == nil {
		t.Fatal("negative endpoint encoded without error")
	}
	for name, m := range badBeacons() {
		if _, err := AppendWire(nil, m); err == nil {
			t.Errorf("%s: encoded without error", name)
		}
	}
}

// badBeacons are beacon frames no honest sender produces, keyed by what is
// wrong with them.
func badBeacons() map[string]WireMsg {
	inf, nan := math.Inf(1), math.NaN()
	return map[string]WireMsg{
		"M=+Inf":           BeaconMsg(1, 0, 1, 0.05, Beacon{L: 1, M: inf}),
		"M=-Inf":           BeaconMsg(1, 0, 1, 0.05, Beacon{L: 1, M: -inf}),
		"M=NaN":            BeaconMsg(1, 0, 1, 0.05, Beacon{L: 1, M: nan}),
		"L=NaN":            BeaconMsg(1, 0, 1, 0.05, Beacon{L: nan, M: 1}),
		"L=+Inf":           BeaconMsg(1, 0, 1, 0.05, Beacon{L: inf, M: 1}),
		"SentAt=NaN":       BeaconMsg(1, 0, nan, 0.05, Beacon{L: 1, M: 1}),
		"SentAt=-Inf":      BeaconMsg(1, 0, -inf, 0.05, Beacon{L: 1, M: 1}),
		"MinTransit=+Inf":  BeaconMsg(1, 0, 1, inf, Beacon{L: 1, M: 1}),
		"MinTransit=NaN":   BeaconMsg(1, 0, 1, nan, Beacon{L: 1, M: 1}),
		"MinTransit=-0.01": BeaconMsg(1, 0, 1, -0.01, Beacon{L: 1, M: 1}),
	}
}

// rawBeacon encodes m without AppendWire's value checks — the bytes a
// faulty or hostile peer could put on the wire.
func rawBeacon(m WireMsg) []byte {
	b := binary.BigEndian.AppendUint32(nil, beaconPayloadLen)
	b = append(b, WireBeacon)
	b = binary.BigEndian.AppendUint32(b, uint32(m.From))
	b = binary.BigEndian.AppendUint32(b, uint32(m.To))
	for _, v := range []float64{m.SentAt, m.MinTransit, m.Beacon.L, m.Beacon.M} {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestWireRejectsBadBeaconValues: a beacon with a non-finite float or a
// negative transit decodes to an ErrInvalidFrame error, never to a frame.
func TestWireRejectsBadBeaconValues(t *testing.T) {
	good := BeaconMsg(1, 0, 1, 0.05, Beacon{L: 1, M: 1})
	if _, err := ReadWire(bytes.NewReader(rawBeacon(good))); err != nil {
		t.Fatalf("rawBeacon of a valid beacon: %v", err)
	}
	for name, m := range badBeacons() {
		got, err := ReadWire(bytes.NewReader(rawBeacon(m)))
		if !errors.Is(err, ErrInvalidFrame) {
			t.Errorf("%s: ReadWire = %+v, %v; want an ErrInvalidFrame error", name, got, err)
		}
	}
}

// FuzzReadWire: decoding arbitrary bytes never panics, and every frame
// ReadWire accepts re-encodes to exactly the bytes it was read from.
func FuzzReadWire(f *testing.F) {
	var seed bytes.Buffer
	WriteWire(&seed, HelloMsg(16))
	WriteWire(&seed, BeaconMsg(7, 123456, 1.25, 0.05, Beacon{L: 3.14, M: 2.72}))
	f.Add(seed.Bytes())
	f.Add(rawBeacon(BeaconMsg(1, 0, 1, 0.05, Beacon{L: 1, M: math.Inf(1)})))
	f.Add(rawBeacon(BeaconMsg(1, 0, 1, -1, Beacon{L: 1, M: 1})))
	f.Add([]byte{0, 0, 0, 1, 99})
	f.Add([]byte{0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			m, err := ReadWire(r)
			if err != nil {
				return
			}
			frame := data[start : len(data)-r.Len()]
			enc, err := AppendWire(nil, m)
			if err != nil {
				t.Fatalf("accepted frame %+v does not re-encode: %v", m, err)
			}
			if !bytes.Equal(enc, frame) {
				t.Fatalf("frame %+v re-encodes to %x, read from %x", m, enc, frame)
			}
		}
	})
}
