//go:build !race

package drms_test

const raceEnabled = false
