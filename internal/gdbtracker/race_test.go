//go:build race

package gdbtracker

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops items at random, so pooled buffers are allocated again.
const raceEnabled = true
