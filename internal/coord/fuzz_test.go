package coord

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"drms/internal/frame"
	"drms/internal/pfs"
)

// gobRecord encodes r, an appRecord or an rcRecord, the way coordinators
// before the record frame stored it: gob, the record's fields behind a
// Schema field.
func gobRecord(t testing.TB, schema int, r any) []byte {
	v := reflect.ValueOf(r)
	fields := []reflect.StructField{{Name: "Schema", Type: reflect.TypeFor[int]()}}
	for i := range v.NumField() {
		fields = append(fields, reflect.StructField{Name: v.Type().Field(i).Name, Type: v.Type().Field(i).Type})
	}
	old := reflect.New(reflect.StructOf(fields)).Elem()
	old.Field(0).SetInt(int64(schema))
	for i := range v.NumField() {
		old.Field(i + 1).Set(v.Field(i))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old.Interface()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Records of both eras for the decoders' tests and seeds.
var (
	gaveUpRecord = appRecord{Name: "gave-up", Status: StatusStalled, Tasks: 1,
		Err: "coord: recovery budget exhausted", Incarnation: 3, Version: 21, Lease: 39,
		Supervised: true, Attempts: 3, LastResolved: 4, FirstCause: "msg: task killed",
		PolicyBudget: 5, Backoff: time.Millisecond, BackoffMax: time.Second, StallPenalty: 1}
	doneRecord = appRecord{Name: "done", Status: StatusFinished, Tasks: 2,
		Nodes: []int{0, 1}, Version: 9, Lease: 40, Keep: 2, AnchorEvery: 4, Verify: true, SPMD: true}
)

// FuzzDecodeRecord feeds arbitrary bytes to what a restarted coordinator
// runs on each stored record: decodeRecord into an appRecord and
// appFromRecord around it (with and without a catalog re-binding the
// name), and decodeRecord into the rcRecord. An error or an application
// are the only outcomes: no stored record may panic a recovery, and an
// accepted frame is the encoding of the record it decoded to. Seeded
// with a supervised record, a settled one and the coordinator's own, as
// frames and as the gob records earlier coordinators wrote.
func FuzzDecodeRecord(f *testing.F) {
	rcRec := rcRecord{LeaseSeq: 41, Shard: 1, Shards: 2}
	for _, r := range []record{&gaveUpRecord, &doneRecord, &rcRec} {
		f.Add(frame.Encode(r.walk))
		f.Add(gobRecord(f, 1, reflect.ValueOf(r).Elem().Interface()))
	}
	catalog := func(string) (AppSpec, bool) { return AppSpec{Recovery: &RecoveryPolicy{}}, true }

	f.Fuzz(func(t *testing.T, b []byte) {
		framed := bytes.HasPrefix(b, []byte(recordMagic))
		var rec appRecord
		if err := decodeRecord(b, &rec); err == nil {
			if framed && !bytes.Equal(frame.Encode(rec.walk), b) {
				t.Fatalf("%x decoded to %+v, which encodes to %x", b, rec, frame.Encode(rec.walk))
			}
			for _, cat := range []func(string) (AppSpec, bool){nil, catalog} {
				app := appFromRecord(rec, cat)
				if app == nil || app.Name != rec.Name {
					t.Fatalf("appFromRecord(%+v) = %+v", rec, app)
				}
				_ = appInfoLocked(rec.Name, app)
			}
		}
		var rcr rcRecord
		if err := decodeRecord(b, &rcr); err == nil && framed && !bytes.Equal(frame.Encode(rcr.walk), b) {
			t.Fatalf("%x decoded to %+v, which encodes to %x", b, rcr, frame.Encode(rcr.walk))
		}
	})
}

// fuzzRC is a coordinator with no processors for the wire fuzzers: with
// nothing to run on, no application ever starts, so no request can
// block on one.
func fuzzRC(f *testing.F) *RC {
	rc, err := NewRCOpts(pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256}), RCOptions{HBTimeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rc.Close)
	return rc
}

// FuzzControlRequest answers an arbitrary request line as a control
// connection does (answer), on a coordinator with no processors. A
// response is the only outcome, never a panic: an error response exactly
// when the op failed, a malformed-request one for a line that is not a
// JSON request, and one that encodes as the reply line. Seeded with
// every op, some with out-of-range fields.
func FuzzControlRequest(f *testing.F) {
	for _, r := range []Request{{Op: "nodes"}, {Op: "apps"}, {Op: "status", Name: "x"},
		{Op: "wait", Name: "x", TimeoutMS: 1}, {Op: "open", Name: "x"},
		{Op: "submit", Name: "acme/j", Kernel: "sp", Class: "S", Min: 2, Max: 1, ScaleMax: 3},
		{Op: "submit", Kernel: "lu", Class: "Q"}, {Op: "checkpoint", Name: "x", Version: 3},
		{Op: "stop", Name: "x"}, {Op: "resize", Name: "x", Tasks: -1}, {Op: "reconfigure", Name: "x", Tasks: 2},
		{Op: "failnode", Node: -1}, {Op: "verify", Prefix: "ck"}, {Op: "events"}, {Op: "stats"}, {Op: "?"}} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"op":"submit","kernel":"bt","class":"\u0000","min":-9223372036854775808}`))
	f.Add([]byte(`not json`))
	rc := fuzzRC(f)
	srv := &ControlServer{RC: rc, JSA: NewJSA(rc), Quota: 2}
	f.Fuzz(func(t *testing.T, line []byte) {
		resp := answer(line, srv.handle)
		if resp.OK == (resp.Error != "") {
			t.Fatalf("response ok=%v with error %q", resp.OK, resp.Error)
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil && !strings.HasPrefix(resp.Error, "malformed request: ") {
			t.Fatalf("undecodable line answered %+v", resp)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("response does not encode: %v", err)
		}
	})
}

// FuzzTCLines opens a TC connection to a coordinator, sends an arbitrary
// first line (the hello) and arbitrary lines after it (heartbeats, a
// goodbye, noise), then hangs up. The coordinator serves the connection
// to its end — never a panic, never a hang — and afterwards holds no
// live processor: whatever registered, the hang-up lost it.
func FuzzTCLines(f *testing.F) {
	line := func(m tcMsg) string {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	f.Add(line(tcMsg{Kind: "hello", Node: 0, Epoch: 1}), line(tcMsg{Kind: "hb"})+"\n"+line(tcMsg{Kind: "bye"}))
	f.Add(line(tcMsg{Kind: "hello", Node: -3, Epoch: -1}), `{"kind":"hb"`)
	f.Add(line(tcMsg{Kind: "hello", Node: 1 << 40, Epoch: 1 << 62}), "\x00\xff")
	f.Add(line(tcMsg{Kind: "hb", Node: 1}), "")
	f.Add(`{"kind":"hello","node":1e99}`, line(tcMsg{Kind: "hb"}))
	rc := fuzzRC(f)
	f.Fuzz(func(t *testing.T, hello, rest string) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			rc.serveTC(server)
			close(done)
		}()
		go func() {
			client.Write([]byte(strings.ReplaceAll(hello, "\n", "") + "\n" + rest + "\n"))
			client.Close()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the coordinator still serves a TC that hung up")
		}
		if nodes := rc.AvailableNodes(); len(nodes) > 0 {
			t.Fatalf("nodes %v live after their TC hung up", nodes)
		}
	})
}
