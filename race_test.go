//go:build race

package drms_test

// raceEnabled reports a build with the race detector, which allocates for
// its own bookkeeping and under which a sync.Pool drops a share of what it
// is given at random.
const raceEnabled = true
