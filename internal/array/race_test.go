//go:build race

package array

// raceEnabled reports a build with the race detector, under which a
// sync.Pool drops a share of what it is given at random.
const raceEnabled = true
