//go:build race

package core

// raceEnabled reports whether the race detector is on, which slows the
// full-size builds of TestBuildShapeDigests tenfold without checking
// anything they do not.
const raceEnabled = true
