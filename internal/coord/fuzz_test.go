package coord

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"
)

// FuzzDecodeRecord feeds arbitrary bytes to what a restarted coordinator
// runs on each stored record: decodeRecord into an appRecord and
// appFromRecord around it (with and without a catalog re-binding the
// name), and decodeRecord into the rcRecord. An error or an application
// are the only outcomes: no stored record may panic a recovery. Seeded
// with a supervised record, a settled one and the coordinator's own.
func FuzzDecodeRecord(f *testing.F) {
	enc := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(enc(appRecord{Schema: 1, Name: "gave-up", Status: StatusStalled, Tasks: 1,
		Err: "coord: recovery budget exhausted", Incarnation: 3, Version: 21, Lease: 39,
		Supervised: true, Attempts: 3, LastResolved: 4, FirstCause: "msg: task killed",
		PolicyBudget: 5, Backoff: time.Millisecond, BackoffMax: time.Second, StallPenalty: 1}))
	f.Add(enc(appRecord{Schema: 1, Name: "done", Status: StatusFinished, Tasks: 2,
		Nodes: []int{0, 1}, Version: 9, Lease: 40, Keep: 2, AnchorEvery: 4}))
	f.Add(enc(rcRecord{Schema: 1, LeaseSeq: 41, Shard: 1, Shards: 2}))
	catalog := func(string) (AppSpec, bool) { return AppSpec{Recovery: &RecoveryPolicy{}}, true }

	f.Fuzz(func(t *testing.T, b []byte) {
		if rec, err := decodeRecord(b, func(r *appRecord) int { return r.Schema }); err == nil {
			for _, cat := range []func(string) (AppSpec, bool){nil, catalog} {
				app := appFromRecord(rec, cat)
				if app == nil || app.Name != rec.Name {
					t.Fatalf("appFromRecord(%+v) = %+v", rec, app)
				}
				_ = appInfoLocked(rec.Name, app)
			}
		}
		_, _ = decodeRecord(b, func(r *rcRecord) int { return r.Schema })
	})
}
