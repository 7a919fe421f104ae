package main

import (
	"bufio"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"drms/internal/ckpt"
	"drms/internal/coord"
	"drms/internal/obs"
	"drms/internal/pfs"
)

// TestDaemonObservabilityEndToEnd drives the full daemon stack — RC, TC
// pool, JSA, control server, observability listener — through a
// checkpoint/fail/recover cycle and scrapes /metrics, /healthz, and the
// "stats" op at the end: the checkpoint-latency histogram, the recovery
// counters and TTR, the plan-cache hit rate, and the pool gauge must all
// have moved, exactly as a Prometheus scrape of a live drmsd would see.
func TestDaemonObservabilityEndToEnd(t *testing.T) {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	rc, err := coord.NewRCOpts(fs, coord.RCOptions{HBTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	tcs, err := coord.Pool(rc, 3, 50*time.Millisecond, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := &coord.ControlServer{RC: rc, JSA: coord.NewJSA(rc),
		FailNode: func(n int) error { tcs[n].Fail(); return nil },
		Recovery: &coord.RecoveryPolicy{Budget: 5, Backoff: 5 * time.Millisecond}}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := coord.DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The same handler the -obs flag mounts, behind a test listener.
	web := httptest.NewServer(obs.Default.Handler(func() error { return nil }))
	defer web.Close()

	ckptWritesBefore, _ := obs.Default.Value("drms_ckpt_write_seconds")
	recoveriesBefore, _ := obs.Default.Value("drms_coord_recoveries_total")
	ttrSamplesBefore, _ := obs.Default.Value("drms_coord_recovery_seconds")

	if _, err := cl.Do(coord.Request{Op: "submit", Name: "job", Kernel: "sp",
		Class: "S", Min: 2, Max: 3, Iters: 400, CkEvery: 3}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first checkpoint", func() bool { return ckpt.Exists(fs, "job") })
	if _, err := cl.Do(coord.Request{Op: "failnode", Node: 1}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "autonomous recovery", func() bool {
		resp, err := cl.Do(coord.Request{Op: "status", Name: "job"})
		return err == nil && resp.App != nil && resp.App.Incarnation >= 1 &&
			resp.App.Status == coord.StatusRunning
	})
	cl.Do(coord.Request{Op: "stop", Name: "job"}) // may already be settling
	if status, err := cl.WaitStatus("job", 30*time.Second); err != nil || status != coord.StatusFinished {
		t.Fatalf("job settled (%v, %v), want (finished, nil)", status, err)
	}

	// Registry-level assertions: the instrumented layers moved.
	if v, _ := obs.Default.Value("drms_ckpt_write_seconds"); v <= ckptWritesBefore {
		t.Fatalf("checkpoint latency histogram did not move: %v -> %v", ckptWritesBefore, v)
	}
	if v, _ := obs.Default.Value("drms_coord_recoveries_total"); v < recoveriesBefore+1 {
		t.Fatalf("recoveries counter = %v, want >= %v", v, recoveriesBefore+1)
	}
	if v, _ := obs.Default.Value("drms_coord_recovery_seconds"); v < ttrSamplesBefore+1 {
		t.Fatalf("TTR histogram samples = %v, want >= %v", v, ttrSamplesBefore+1)
	}
	if hits, _ := obs.Default.Value("drms_array_plan_cache_hits_total"); hits == 0 {
		t.Fatal("plan cache recorded no hits across periodic checkpoints")
	}

	// Scrape-level assertions: the exposition a Prometheus server sees.
	body, ct := get(t, web.URL+"/metrics", http.StatusOK)
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	for _, want := range []string{
		"drms_ckpt_write_seconds_bucket{",
		"drms_ckpt_write_seconds_count ",
		"drms_coord_recovery_seconds_count ",
		"drms_coord_last_ttr_seconds ",
		"drms_coord_tcs_live ",
		"drms_array_plan_cache_hits_total ",
		"drms_stream_plan_cache_hits_total ",
		"drms_stream_piece_bytes_total ",
		"drms_msg_collective_seconds_count ",
		"drms_coord_terminal_events_dropped_total 0",
		"drms_uptime_seconds ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if health, _ := get(t, web.URL+"/healthz", http.StatusOK); !strings.Contains(health, "ok") {
		t.Fatalf("/healthz body = %q", health)
	}

	// And the control-protocol view of the same registry.
	resp, err := cl.Do(coord.Request{Op: "stats"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Stats, "drms_coord_recoveries_total") {
		t.Fatal("stats op reply lacks the recovery counter")
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func get(t *testing.T, url string, wantStatus int) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// daemonChild, as the first argument after the test binary's flags,
// makes TestSIGTERMSavesState run main with the arguments after it.
const daemonChild = "drmsd-child"

// TestSIGTERMSavesState stops a daemon the way a service manager does,
// with SIGTERM, and loads the -state snapshot it must have saved. The
// test binary runs main as the daemon.
func TestSIGTERMSavesState(t *testing.T) {
	if flag.Arg(0) == daemonChild {
		os.Args = append([]string{"drmsd"}, flag.Args()[1:]...)
		flag.CommandLine = flag.NewFlagSet("drmsd", flag.ExitOnError)
		main()
		return
	}
	state := filepath.Join(t.TempDir(), "state.pfs")
	cmd := exec.Command(os.Args[0], "-test.run=^TestSIGTERMSavesState$", "-test.count=1",
		"--", daemonChild, "-nodes", "1", "-state", state)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() }).Stop()
	var out strings.Builder
	for sc := bufio.NewScanner(stdout); sc.Scan(); {
		out.WriteString(sc.Text() + "\n")
		if strings.Contains(sc.Text(), "control protocol on") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon: %v\n%s", err, out.String())
	}
	fs := pfs.NewSystem(pfs.DefaultConfig())
	if err := fs.LoadFile(state); err != nil {
		t.Fatalf("load the saved state: %v\n%s", err, out.String())
	}
}
