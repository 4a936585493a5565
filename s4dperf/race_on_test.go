//go:build race

package main

// raceEnabled reports a race-detector build, whose slowdown moves the
// timing-dependent validity figures (hot-net's read hit share).
const raceEnabled = true
