//go:build !race

package gdbtracker

const raceEnabled = false
