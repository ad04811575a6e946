package gradsync_test

// This file pins the full-run outcome of the structure-of-arrays storage:
// the randomized runs that pin the sharded tick must hash to golden
// constants, most of them taken while the retired map-backed reference
// layout still existed and asserted on both layouts (see layoutGolden), so
// the one remaining layout keeps producing exactly what both did — and
// must stay identical under the sharded event drain, so the layout
// composes with its fan-out. These networks are below runner's
// inlineTickNodes, so their tick runs on one goroutine at every
// TickParallelism; internal/runner's TestPooledTickDifferential composes
// the layout with the tick pool. The 8-shard replays also run under
// `make race`, putting the slab read paths in front of the detector.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	gradsync "repro"
)

// layoutGolden maps each randomTickCase seed to the sha256 of its
// tickFingerprint (see tickFingerprint.sum). Seeds 102, 106, 108 and 109 run
// the random walk, whose paths are drawn from per-node streams; their
// constants were taken after that change, so only the other eight still
// tie the slab layout to the retired map-backed one.
var layoutGolden = map[int64]string{
	101: "9db688c0c8b24946623a12d2a82612cc35acc652c028457adf96a59c1a15b037",
	102: "8952f2caf648232bf2c980924473be4f82ed1066a2226aabcd46cf8412801413",
	103: "79208a352d17c5e297d68063f7b7f8616bcd2ad265981f2f5eea44462ac6a9c0",
	104: "06b80e60aef3fec5e9da7fc5ea9319cec24508d1c386f4637576cf48e10e369e",
	105: "8468d777ac7bf084447d0a58f51fb401e89e61b4dbf911260da094d4f358e683",
	106: "b70506bb22f111c2e9eade28d9fc593bbd89e232c88ecfd5df5ec41a7e2a9e7a",
	107: "8a5e99476b03fadcb170ffcba31f366ccefb7d41fbb854dc4263dc478f36cb6c",
	108: "67ef278215e67580dbc882398dd3a1dd93d50623d22c9ba25169ad5242470176",
	109: "70945c6d341fb54a8c9f35152c9e2b45a736aa88e8e274e030bc5bfc783f42f9",
	110: "aaa3098af078418bf57463d31792ca2bf1586c869c5ef73b69978cd0c1f5becc",
	111: "2f09654f9c776e8014cec7215150486815aca804cfde289a0d5dce0ac3053d85",
	112: "bebfd63c62a0bdcf0369c647a5f143806d30a9e5bfcb31348c9e0e0ded750d99",
}

// sum is the sha256 over the fingerprint's L/M bits, the engine's event
// count and the six core counters, in that order.
func (a tickFingerprint) sum() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for u := range a.clocks {
		put(a.clocks[u])
		put(a.maxes[u])
	}
	for _, v := range []uint64{a.stepped, a.fast, a.slow, a.conflicts, a.missing, a.insertions, a.aborts} {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLayoutDifferential replays randomized full runs — topology, scenario,
// drift adversary, estimate layer, algorithm all drawn per case — at
// tick/event parallelism (1,1), (2,2) and (8,8), the tick on one shard
// throughout. Clocks, max estimates, event counts and every algorithm
// counter must match bit-for-bit across the shard counts and hash to the
// case's golden constant.
func TestLayoutDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replays take a few seconds")
	}
	for caseSeed := int64(101); caseSeed <= 112; caseSeed++ {
		c := randomTickCase(caseSeed)
		want := layoutGolden[caseSeed]
		t.Run(c.name, func(t *testing.T) {
			run := func(par int) tickFingerprint {
				cfg := c.build(par)
				cfg.EventParallelism = par
				net := gradsync.MustNew(cfg)
				net.RunFor(c.horizon)
				return fingerprint(net)
			}
			serial := run(1)
			t.Logf("fingerprint %s", serial.sum())
			if got := serial.sum(); got != want {
				t.Errorf("serial run fingerprint %s, want %s", got, want)
			}
			for _, par := range []int{2, 8} {
				fp := run(par)
				if d := serial.diff(fp); d != "" {
					t.Fatalf("parallelism %d diverged from the serial run: %s", par, d)
				}
				if got := fp.sum(); got != want {
					t.Errorf("parallelism %d: fingerprint %s, want %s", par, got, want)
				}
			}
		})
	}
}
