//go:build race

package bufpool

// RaceEnabled reports whether the race detector is on. Under it sync.Pool
// drops a quarter of its Puts at random, so paths that are allocation-free
// on pool hits allocate by design; AllocsPerRun tests skip themselves.
const RaceEnabled = true
