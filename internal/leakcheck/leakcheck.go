// Package leakcheck fails a test binary whose tests leave a goroutine of
// this module running: a coordinator, a heartbeat loop, an application's
// ranks, a transport's reader. Every package with tests calls it from its
// TestMain; only tests import it, and it imports the standard library
// alone.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs m's tests and exits. Once they pass, it waits up to 5 s for
// every goroutine with a frame of this module to end, and otherwise fails
// the binary, naming it and printing their stacks.
func Main(m *testing.M) {
	code := m.Run()
	for deadline := time.Now().Add(5 * time.Second); code == 0; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		var leaked []string
		for i, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if i > 0 && strings.Contains(g, "\ndrms/") { // the first is this goroutine
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			break
		} else if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "%s: %d goroutines outlived the tests:\n\n%s\n",
				os.Args[0], len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}
