package coord

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakGrace bounds how long TestMain waits, after the tests, for the
// goroutines they started to end.
const leakGrace = 5 * time.Second

// TestMain fails the package when a goroutine running this module's code
// outlives its tests — a coordinator, a TC's heartbeat loop, an
// application's ranks — and prints each one's stack.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := moduleGoroutines(leakGrace); code == 0 && len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d goroutines outlived the tests:\n\n%s\n",
			os.Args[0], len(leaked), strings.Join(leaked, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// moduleGoroutines returns the stacks of the goroutines, other than the
// caller's, with a frame of this module, once none is left or grace has
// passed.
func moduleGoroutines(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var leaked []string
		for i, g := range strings.Split(string(buf), "\n\n") {
			if i > 0 && strings.Contains(g, "\ndrms/") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}
