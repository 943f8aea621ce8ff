//go:build race

package zone

// raceEnabled: the race detector multiplies every memory access's
// cost, so a same-run speed ratio says nothing under -race.
const raceEnabled = true
