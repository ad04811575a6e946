//go:build race

package main

// raceEnabled reports whether the race detector is compiled in (see
// race_off_test.go for why alloc assertions key on it).
const raceEnabled = true
