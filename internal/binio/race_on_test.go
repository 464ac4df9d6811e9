//go:build race

package binio

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put back, so pooled objects are rebuilt at random.
const raceEnabled = true
