package coord

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"drms/internal/ckpt"
	"drms/internal/pfs"
)

const gobHistoryChild = "gob-history-child"

// committedState commits one supervised application's record and the
// coordinator's own through the coordinator's flush, and returns the
// generation's stored segment and meta.
func committedState(t *testing.T) [][]byte {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	rc := syncOnlyRC(t, fs, RCOptions{StatePrefix: "rcstate", Shard: 1, Shards: 2})
	rc.mu.Lock()
	rc.apps["job"] = appFromRecord(appRecord{Name: "job", Status: StatusRunning, Tasks: 3,
		Nodes: []int{0, 2, 3}, Incarnation: 1, Version: 5, Lease: 7, Supervised: true,
		PolicyBudget: 4, Backoff: 5 * time.Millisecond, BackoffMax: time.Second}, nil)
	rc.leaseSeq = 7
	rc.dirtyLocked()
	rc.mu.Unlock()
	if err := rc.flushState(); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, name := range []string{"rcstate.g0.seg", "rcstate.g0.meta"} {
		sz, err := fs.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, sz)
		if err := fs.ReadAt(0, name, b, 0); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestStateBytesIndependentOfGobHistory: a committed state generation is
// a function of the coordinator's tables alone. A child process that
// gob-encodes an unrelated struct before anything else — which renumbers
// every gob type it meets after — commits the same tables as this
// process, segment and meta byte for byte.
func TestStateBytesIndependentOfGobHistory(t *testing.T) {
	if flag.Arg(0) == gobHistoryChild {
		if err := gob.NewEncoder(io.Discard).Encode(struct {
			Unrelated []string
			N         map[string]int
		}{[]string{"x"}, map[string]int{"y": 1}}); err != nil {
			t.Fatal(err)
		}
		for _, b := range committedState(t) {
			fmt.Printf("file %s\n", hex.EncodeToString(b))
		}
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestStateBytesIndependentOfGobHistory$", "-test.count=1",
		"--", gobHistoryChild).CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var child [][]byte
	for _, line := range strings.Split(string(out), "\n") {
		if h, ok := strings.CutPrefix(line, "file "); ok {
			b, err := hex.DecodeString(h)
			if err != nil {
				t.Fatal(err)
			}
			child = append(child, b)
		}
	}
	mine := committedState(t)
	if len(child) != len(mine) {
		t.Fatalf("child printed %d files, want %d:\n%s", len(child), len(mine), out)
	}
	for i, name := range []string{"segment", "meta"} {
		if !bytes.Equal(child[i], mine[i]) {
			t.Errorf("%s: %d bytes in the child, %d here, not identical", name, len(child[i]), len(mine[i]))
		}
	}
}

// TestRecoverParentEraStore restores testdata/rcstate_parent.pfs, a store
// the last gob-image coordinator flushed with two supervised applications,
// "done" finished and "run" running: RecoverRC refuses it until
// StateStore.Upgrade rewrote its head, the upgraded head loads the tables
// that coordinator wrote, and the first commit after recovery writes
// every record as a frame.
func TestRecoverParentEraStore(t *testing.T) {
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	if err := fs.LoadFile("testdata/rcstate_parent.pfs"); err != nil {
		t.Fatal(err)
	}
	opt := RCOptions{HBTimeout: hbTimeout, StatePrefix: "rcstate"}
	before := fs.List("")
	if rc, _, err := RecoverRC(fs, opt, nil); !errors.Is(err, ckpt.ErrLegacyFormat) {
		if rc != nil {
			rc.Close()
		}
		t.Fatalf("RecoverRC of the parent's store: %v, want ckpt.ErrLegacyFormat", err)
	}
	if after := fs.List(""); !slices.Equal(before, after) {
		t.Fatalf("a refused recovery changed the store: %v -> %v", before, after)
	}
	if g, q, err := (&ckpt.StateStore{Base: "rcstate"}).Upgrade(fs); g != 3 || len(q) != 0 || err != nil {
		t.Fatalf("Upgrade: gen %d quarantined %v, %v", g, q, err)
	}

	rem := &Remnant{}
	rc, report, err := loadRC(fs, opt, rem)
	if err != nil {
		t.Fatal(err)
	}
	if report.Gen != 3 || rc.leaseSeq != 2 || len(rc.apps) != 2 {
		t.Fatalf("loaded gen %d, lease sequence %d, %d applications", report.Gen, rc.leaseSeq, len(rc.apps))
	}
	for _, want := range []appRecord{
		{Name: "done", Status: StatusFinished, Tasks: 2, Nodes: []int{0, 1}, Version: 2, Lease: 1,
			Supervised: true, Budget: 3, LastResolved: -2, PolicyBudget: 3,
			Backoff: 5 * time.Millisecond, BackoffMax: 40 * time.Millisecond, StallPenalty: 1},
		{Name: "run", Status: StatusRunning, Tasks: 2, Nodes: []int{0, 1}, Version: 1, Lease: 2,
			Supervised: true, Budget: 5, LastResolved: -2, PolicyBudget: 5,
			Backoff: 7 * time.Millisecond, BackoffMax: 90 * time.Millisecond, StallPenalty: 2},
	} {
		if got := rc.apps[want.Name]; got == nil || fmt.Sprintf("%+v", got.appRecord) != fmt.Sprintf("%+v", want) {
			t.Errorf("%s loaded as %+v, want %+v", want.Name, got, want)
		}
	}

	rc.reconcile(rem, report)
	t.Cleanup(rc.Close)
	records, g, _, ok, err := (&ckpt.StateStore{Base: "rcstate"}).Load(fs)
	if !ok || err != nil || g != 4 || len(records) != 3 {
		t.Fatalf("after recovery: gen %d ok %v, %d records, %v", g, ok, len(records), err)
	}
	for key, b := range records {
		if !bytes.HasPrefix(b, []byte(recordMagic)) {
			t.Errorf("record %q is not a frame: %q", key, b)
		}
	}
}
