//go:build race

package server

// raceEnabled: the race detector makes sync.Pool drop a random quarter
// of Puts, so pool allocation counts say nothing under -race.
const raceEnabled = true
