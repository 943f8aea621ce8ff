//go:build race

package replay

// raceEnabled: the race detector makes sync.Pool drop a random quarter
// of Puts, so pool allocation counts say nothing under -race, and its
// instrumentation swamps a same-run speed ratio.
const raceEnabled = true
