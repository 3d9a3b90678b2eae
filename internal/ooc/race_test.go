//go:build race

package ooc

// raceEnabled reports whether the race detector is built in. Under it
// sync.Pool discards a share of what it is given, so tests that pin a pooled
// path's allocations skip.
const raceEnabled = true
