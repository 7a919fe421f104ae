package coord

import (
	"strings"
	"testing"
	"time"
)

// controlCluster brings up an RC, TCs, JSA and a control server, and
// returns a connected client. timeout is newCluster's.
func controlCluster(t *testing.T, nodes int, timeout ...time.Duration) (*ControlClient, []*TC) {
	t.Helper()
	_, rc, tcs := newCluster(t, nodes, timeout...)
	srv := &ControlServer{RC: rc, JSA: NewJSA(rc), FailNode: func(n int) error {
		tcs[n].Fail()
		return nil
	}}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, tcs
}

// mutate sends a mutating request as drmsctl does without -version:
// "open" first, then req with the version that returned.
func mutate(cl *ControlClient, req Request) (Response, error) {
	open, err := cl.Do(Request{Op: "open", Name: req.Name})
	if err != nil {
		return open, err
	}
	req.Version = open.Version
	return cl.Do(req)
}

// TestControlRefusesUnversionedMutation: one control-API generation. A
// checkpoint, stop or resize without the version an "open" returned is
// refused with an error that names "open", and changes nothing; with it,
// the same request succeeds.
func TestControlRefusesUnversionedMutation(t *testing.T) {
	cl, _ := controlCluster(t, 2)
	if _, err := cl.Do(Request{Op: "submit", Name: "job", Kernel: "bt",
		Class: "S", Min: 1, Max: 1, Iters: 100000, CkEvery: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool {
		resp, err := cl.Do(Request{Op: "status", Name: "job"})
		return err == nil && resp.App.Status == StatusRunning
	})
	before, err := cl.Do(Request{Op: "open", Name: "job"})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"checkpoint", "stop", "resize"} {
		if _, err := cl.Do(Request{Op: op, Name: "job", Tasks: 2}); err == nil || !strings.Contains(err.Error(), `"open"`) {
			t.Errorf("unversioned %s: %v, want a refusal naming open", op, err)
		}
	}
	if after, err := cl.Do(Request{Op: "open", Name: "job"}); err != nil || after.Version != before.Version || after.App.Tasks != 1 {
		t.Fatalf("refused requests moved the application: version %d -> %d, %+v, %v", before.Version, after.Version, after.App, err)
	}
	if _, err := mutate(cl, Request{Op: "stop", Name: "job"}); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WaitStatus("job", 30*time.Second); err != nil || st != StatusFinished {
		t.Fatalf("job settled %s, %v", st, err)
	}
}

func TestControlNodesAndSubmit(t *testing.T) {
	cl, tcs := controlCluster(t, 3)
	resp, err := cl.Do(Request{Op: "nodes"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 3 {
		t.Fatalf("nodes %v", resp.Nodes)
	}
	if _, err := cl.Do(Request{Op: "submit", Name: "job1", Kernel: "sp",
		Class: "S", Min: 2, Max: 3, Iters: 4, CkEvery: 2}); err != nil {
		t.Fatal(err)
	}
	status, err := cl.WaitStatus("job1", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusFinished {
		t.Fatalf("status %s", status)
	}
	// The checkpoint it took along the way verifies remotely.
	if _, err := cl.Do(Request{Op: "verify", Prefix: "job1"}); err != nil {
		t.Fatal(err)
	}
	resp, err = cl.Do(Request{Op: "apps"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Apps) != 1 || resp.Apps[0].Name != "job1" {
		t.Fatalf("apps %+v", resp.Apps)
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

func TestControlErrors(t *testing.T) {
	cl, tcs := controlCluster(t, 1)
	cases := []Request{
		{Op: "status", Name: "ghost"},
		{Op: "submit", Name: "x", Kernel: "cg"},
		{Op: "submit", Name: "x", Kernel: "bt", Class: "Z"},
		{Op: "checkpoint", Name: "ghost", Version: 1},
		{Op: "stop", Name: "ghost", Version: 1},
		{Op: "reconfigure", Name: "ghost", Tasks: 1},
		{Op: "verify", Prefix: "nothing"},
		{Op: "frobnicate"},
	}
	for _, req := range cases {
		if _, err := cl.Do(req); err == nil {
			t.Errorf("op %q with bad input succeeded", req.Op)
		}
	}
	tcs[0].Stop()
}

func TestControlFailureDrillAndEvents(t *testing.T) {
	cl, tcs := controlCluster(t, 3)
	if _, err := cl.Do(Request{Op: "submit", Name: "victim", Kernel: "lu",
		Class: "S", Min: 2, Max: 2, Iters: 100000, CkEvery: 3}); err != nil {
		t.Fatal(err)
	}
	// Wait for it to be running on 2 nodes.
	waitFor(t, "victim running", func() bool {
		resp, err := cl.Do(Request{Op: "status", Name: "victim"})
		return err == nil && resp.App.Status == StatusRunning
	})
	// Take down one of its processors through the drill op.
	resp, _ := cl.Do(Request{Op: "status", Name: "victim"})
	node := resp.App.Nodes[0]
	if _, err := cl.Do(Request{Op: "failnode", Node: node}); err != nil {
		t.Fatal(err)
	}
	status, err := cl.WaitStatus("victim", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusTerminated {
		t.Fatalf("status %s after failure", status)
	}
	// Events made it to the client.
	evResp, err := cl.Do(Request{Op: "events"})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range evResp.Events {
		kinds = append(kinds, string(e.Kind))
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, string(EventTCDown)) || !strings.Contains(joined, string(EventAppKilled)) {
		t.Fatalf("events %v", kinds)
	}
	for i, tc := range tcs {
		if i != node {
			tc.Stop()
		}
	}
}

func TestControlStopRequest(t *testing.T) {
	cl, tcs := controlCluster(t, 2)
	if _, err := cl.Do(Request{Op: "submit", Name: "longrun", Kernel: "bt",
		Class: "S", Min: 2, Max: 2, Iters: 100000, CkEvery: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "longrun running", func() bool {
		resp, err := cl.Do(Request{Op: "status", Name: "longrun"})
		return err == nil && resp.App.Status == StatusRunning
	})
	if _, err := mutate(cl, Request{Op: "stop", Name: "longrun"}); err != nil {
		t.Fatal(err)
	}
	status, err := cl.WaitStatus("longrun", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusFinished {
		t.Fatalf("status %s after stop", status)
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}
