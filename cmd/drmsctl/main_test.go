package main

import (
	"bytes"
	"errors"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drms/internal/coord"
	"drms/internal/leakcheck"
	"drms/internal/pfs"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// buildCtl compiles the drmsctl binary into a scratch dir so the tests
// can assert the process-level contract: the exit codes.
func buildCtl(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "drmsctl")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("command did not run: %v", err)
	}
	return ee.ExitCode()
}

// TestExitCodesDistinguishDeadDaemonFromFailedOp pins the drmsfsck-style
// one-meaning-per-code discipline: a dead daemon is exit 3 with a clear
// message (scripts can tell "drmsd died" from "my request was bad"
// without parsing), a daemon that answers but rejects the op is exit 1,
// and a healthy round trip is exit 0.
func TestExitCodesDistinguishDeadDaemonFromFailedOp(t *testing.T) {
	bin := buildCtl(t)

	// A port that was just listening and no longer is: nothing there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-connect", deadAddr, "-op", "stats")
	cmd.Stderr = &stderr
	if code := exitCode(t, cmd.Run()); code != 3 {
		t.Fatalf("dead daemon: exit %d, want 3 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "daemon unreachable") {
		t.Fatalf("dead-daemon stderr %q must say the daemon is unreachable", stderr.String())
	}

	// The blocking wait path dials too; same contract.
	cmd = exec.Command(bin, "-connect", deadAddr, "-op", "wait", "-name", "x")
	if code := exitCode(t, cmd.Run()); code != 3 {
		t.Fatalf("dead daemon (wait): exit %d, want 3", code)
	}

	// A live daemon that rejects the op: exit 1, not 3.
	fs := pfs.NewSystem(pfs.DefaultConfig())
	rc, err := coord.NewRCOpts(fs, coord.RCOptions{HBTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	srv := &coord.ControlServer{RC: rc, JSA: coord.NewJSA(rc)}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	stderr.Reset()
	cmd = exec.Command(bin, "-connect", addr, "-op", "status", "-name", "ghost")
	cmd.Stderr = &stderr
	if code := exitCode(t, cmd.Run()); code != 1 {
		t.Fatalf("rejected op: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "unreachable") {
		t.Fatalf("a rejected op must not claim the daemon is down: %q", stderr.String())
	}

	// And a healthy op: exit 0.
	if code := exitCode(t, exec.Command(bin, "-connect", addr, "-op", "stats").Run()); code != 0 {
		t.Fatalf("healthy op: exit %d, want 0", code)
	}
}

// TestMutationWithoutVersionOpensFirst: the server refuses a mutation
// without a version, so drmsctl run without -version opens the
// application first and mutates with the version it got back.
func TestMutationWithoutVersionOpensFirst(t *testing.T) {
	bin := buildCtl(t)
	fs := pfs.NewSystem(pfs.DefaultConfig())
	rc, err := coord.NewRCOpts(fs, coord.RCOptions{HBTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	tcs, err := coord.Pool(rc, 1, 20*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcs[0].Stop() })
	srv := &coord.ControlServer{RC: rc, JSA: coord.NewJSA(rc)}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := coord.DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if _, err := cl.Do(coord.Request{Op: "submit", Name: "job", Kernel: "bt", Class: "S",
		Min: 1, Max: 1, Iters: 100000, CkEvery: 2}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := cl.Do(coord.Request{Op: "status", Name: "job"}); err == nil && resp.App.Status == coord.StatusRunning {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("job never ran: %v", err)
		}
	}
	if _, err := cl.Do(coord.Request{Op: "stop", Name: "job"}); err == nil || !strings.Contains(err.Error(), `"open"`) {
		t.Fatalf("an unversioned stop on the wire: %v, want a refusal naming open", err)
	}
	out, err := exec.Command(bin, "-connect", addr, "-op", "stop", "-name", "job").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "ok (version") {
		t.Fatalf("drmsctl -op stop without -version: %v\n%s", err, out)
	}
	if st, err := cl.WaitStatus("job", 30*time.Second); err != nil || st != coord.StatusFinished {
		t.Fatalf("job settled %s, %v", st, err)
	}
}
