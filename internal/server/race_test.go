//go:build race

package server

// raceEnabled reports whether the race detector is on. It makes
// sync.Pool drop a random share of Puts, so allocation counts of pooled
// paths are not fixed under it.
const raceEnabled = true
