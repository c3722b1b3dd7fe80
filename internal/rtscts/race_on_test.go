//go:build race

package rtscts

// raceEnabled: the race detector makes sync.Pool drop a quarter of its Puts
// at random, so pool-backed paths allocate under it by design.
const raceEnabled = true
