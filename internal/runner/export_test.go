package runner

import "testing"

// PoolEveryTick makes New build the tick pool at every network size, not
// only from inlineTickNodes nodes up, until t ends. Differentials on small
// networks call it to replay concurrent ticks against the serial one. New
// reads the threshold unsynchronized, so t must not run in parallel with
// other tests that build runtimes; its own parallel subtests may.
func PoolEveryTick(t testing.TB) {
	old := poolNodes
	poolNodes = 0
	t.Cleanup(func() { poolNodes = old })
}
