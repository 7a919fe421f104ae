package coord

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drms/internal/pfs"
)

// rawRC builds an RC with no TC pool and a generous heartbeat timeout,
// for tests that speak the TC wire protocol by hand.
func rawRC(t *testing.T) *RC {
	t.Helper()
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	rc, err := NewRCOpts(fs, RCOptions{HBTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	return watch(rc)
}

// helloConn dials the RC's TC port and registers as the given node.
func helloConn(t *testing.T, rc *RC, node int, extra string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", rc.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := fmt.Fprintf(conn, "{\"kind\":\"hello\",\"node\":%d%s}\n", node, extra); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestEventsStalledConsumerKeepsTerminal pins the two-tier delivery
// contract of a subscription: with no consumer reading during a flood of
// 3000 events, non-terminal chatter is coalesced (and counted as
// dropped) while every terminal event — 50 app-stalled plus a final
// ckpt-quarantined — survives and is delivered once a consumer returns.
// Before the per-subscriber bounded queue, emit dropped whatever the
// full channel could not take, terminal telemetry included.
func TestEventsStalledConsumerKeepsTerminal(t *testing.T) {
	rc := rawRC(t)
	droppedBefore := coordEventsDropped.Value()
	terminalDroppedBefore := coordTerminalEventsDropped.Value()

	const flood = 3000
	wantTerminal := 0
	for i := 0; i < flood; i++ {
		if i%60 == 59 {
			rc.emit(Event{Kind: EventAppStalled, App: "flood", Attempt: i})
			wantTerminal++
		} else {
			rc.emit(Event{Kind: EventNodesFreed, Detail: "chatter"})
		}
	}
	rc.emit(Event{Kind: EventCkptQuarantined, App: "flood", Detail: "final"})
	wantTerminal++

	// The stalled consumer comes back: every terminal event must still
	// be there, in order of emission relative to each other.
	got := 0
	sawFinal := false
	deadline := time.After(5 * time.Second)
	for got < wantTerminal {
		select {
		case e := <-eventsOf(rc):
			if terminalEvent(e.Kind) {
				got++
				if e.Kind == EventCkptQuarantined {
					sawFinal = true
				}
			}
		case <-deadline:
			t.Fatalf("terminal events lost under backpressure: got %d of %d", got, wantTerminal)
		}
	}
	if !sawFinal {
		t.Fatal("final ckpt-quarantined event never delivered")
	}
	if d := coordEventsDropped.Value() - droppedBefore; d == 0 {
		t.Fatal("flood caused no counted drops: bound not applied or drops uncounted")
	}
	if d := coordTerminalEventsDropped.Value() - terminalDroppedBefore; d != 0 {
		t.Fatalf("%d terminal events counted dropped, want 0", d)
	}
}

// TestControlServerCloseStopsEventDrain brackets Serve → Close with the
// goroutine count: the event drain and the accept loop must be gone once
// Close has returned. The drain used to range over a shared stream
// nothing ever closed, so every served ControlServer left one goroutine
// behind — and competed with the stream's other readers.
func TestControlServerCloseStopsEventDrain(t *testing.T) {
	rc := rawRC(t)
	base := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		srv := &ControlServer{RC: rc}
		if _, err := srv.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		rc.emit(Event{Kind: EventNodesFreed, Detail: "something to drain"})
		srv.Close()
		srv.Close() // idempotent
	}
	waitFor(t, "control-server goroutines to exit after Close", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestControlServerKeepsTerminalEventsUnderFlood polls the events op after
// a terminal event and a flood of 5000 non-terminal ones: the terminal
// one must arrive. The server used to keep the last 4096 events of any
// kind in a ring of its own, so a flood pushed app-finished out before
// any client asked (DESIGN §3f: terminal events are never dropped); its
// events now come from its own subscription, which coalesces only
// non-terminal ones.
func TestControlServerKeepsTerminalEventsUnderFlood(t *testing.T) {
	rc := rawRC(t)
	srv := &ControlServer{RC: rc, JSA: NewJSA(rc)}
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

	const flood = 5000
	rc.emit(Event{Kind: EventAppFinished, App: "keep-me"})
	for i := 1; i <= flood; i++ {
		rc.emit(Event{Kind: EventNodesFreed, Detail: fmt.Sprint(i)})
	}
	// Let the server's subscription (the newest) settle — nothing left
	// queued, or its channel full — so the first poll's view does not
	// depend on how far a consumer of it had got.
	rc.subMu.Lock()
	sub := rc.subs[len(rc.subs)-1]
	rc.subMu.Unlock()
	waitFor(t, "the server's subscription to settle", func() bool {
		sub.mu.Lock()
		defer sub.mu.Unlock()
		return len(sub.ch) == cap(sub.ch) || len(sub.queue) == 0 && len(sub.ch) == 0
	})

	terminal := false
	waitFor(t, "the flood's last event", func() bool {
		resp, err := cl.Do(Request{Op: "events"})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range resp.Events {
			terminal = terminal || e.Kind == EventAppFinished && e.App == "keep-me"
			if e.Detail == fmt.Sprint(flood) {
				return true
			}
		}
		return false
	})
	if !terminal {
		t.Fatal("app-finished lost behind a flood of non-terminal events")
	}
}

// TestTCReconnectSendsHelloFirst reconnects a TC that heartbeats every
// 20 µs a hundred times: each new connection must register at the new
// epoch. Reconnect used to swap the connection and send the hello after
// releasing the lock, so a heartbeat could open the new connection and
// the coordinator, which expects a hello first, dropped it.
func TestTCReconnectSendsHelloFirst(t *testing.T) {
	rc := rawRC(t)
	tc, err := StartTC(rc.Addr(), 0, 20*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Fail)
	registered := func() bool {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		st := rc.tcs[0]
		return st != nil && st.alive && st.epoch == tc.Epoch()
	}
	for i := 0; i < 100; i++ {
		if err := tc.Reconnect(rc.Addr()); err != nil {
			t.Fatalf("reconnect %d: %v", i, err)
		}
		waitFor(t, fmt.Sprintf("registration at epoch %d", tc.Epoch()), registered)
	}
}

// TestTCReRegisterClosesSupersededConn pins the re-registration path: a
// node whose TC re-registers while the old registration is still alive
// must have the superseded connection closed immediately. Before the
// fix, rc.tcs[node] was overwritten and the old connection (and its
// serveTC goroutine) leaked until the heartbeat timeout fired against
// the new registration.
func TestTCReRegisterClosesSupersededConn(t *testing.T) {
	rc := rawRC(t)
	c1 := helloConn(t, rc, 3, "")
	waitFor(t, "first registration", func() bool { return len(rc.AvailableNodes()) == 1 })

	helloConn(t, rc, 3, "") // supersedes c1

	// The RC never writes on TC connections, so a read on c1 returns
	// only when the RC closes it. Bound the wait well under the 5 s
	// heartbeat timeout to prove the close is immediate, not a timeout.
	c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := c1.Read(make([]byte, 1))
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("superseded connection not closed on re-registration: read err = %v", err)
	}
	if got := rc.AvailableNodes(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("node lost across re-registration: available = %v", got)
	}
}

// TestTCHelloSurvivesLargeLine pins the RC-side scanner bound: a hello
// line far beyond bufio.Scanner's 64 KiB default must still register.
// Before the explicit Buffer call, the scan failed and the connection
// was dropped as a spurious protocol error.
func TestTCHelloSurvivesLargeLine(t *testing.T) {
	rc := rawRC(t)
	pad := fmt.Sprintf(",\"pad\":%q", strings.Repeat("x", 256<<10))
	helloConn(t, rc, 7, pad)
	waitFor(t, "oversized hello to register", func() bool { return len(rc.AvailableNodes()) == 1 })
}

// TestControlSurvivesLargeRequestLine pins the control-protocol line
// bound on both ends: a request whose JSON line runs to several MiB
// must be parsed and answered (here: a status query for a preposterous
// name gets the ordinary "unknown application" error), and the same
// connection must stay usable afterwards. Heartbeat loss is not what it
// pins: under the race detector the 3 MiB line starves the 10 ms beats
// for longer than the suite's 150 ms timeout, so this cluster gets a
// generous one — with the default a TC was declared lost before "nodes"
// was asked in about one run in three.
func TestControlSurvivesLargeRequestLine(t *testing.T) {
	cl, tcs := controlCluster(t, 2, 10*time.Second)
	_, err := cl.Do(Request{Op: "status", Name: strings.Repeat("n", 3<<20)})
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("large request not answered in-protocol: %v", err)
	}
	resp, err := cl.Do(Request{Op: "nodes"})
	if err != nil {
		t.Fatalf("connection unusable after large request: %v", err)
	}
	if len(resp.Nodes) != 2 {
		t.Fatalf("nodes = %v, want 2 entries", resp.Nodes)
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

// TestLineScannerBound pins the wire's line bound on the scanner every
// connection reads through, whose buffer starts at 4 KiB: a line of
// maxProtoLine−1 bytes, whose newline fills the bound, still crosses a
// TCP connection whole, and one of maxProtoLine+1 is still refused.
func TestLineScannerBound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, n := range []int{maxProtoLine - 1, maxProtoLine + 1} {
		line := append(bytes.Repeat([]byte{'x'}, n), '\n')
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			conn.Write(line) // fails once a refusing reader hangs up
		}()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		sc := newLineScanner(conn)
		scanned := sc.Scan()
		got, scanErr := len(sc.Bytes()), sc.Err()
		conn.Close()
		<-sent
		if n < maxProtoLine && (!scanned || got != n) {
			t.Fatalf("a %d-byte line: scanned %v, %d bytes, err %v", n, scanned, got, scanErr)
		}
		if n > maxProtoLine && (scanned || !errors.Is(scanErr, bufio.ErrTooLong)) {
			t.Fatalf("a %d-byte line past the %d-byte bound: scanned %v, err %v", n, maxProtoLine, scanned, scanErr)
		}
	}
}

// TestWaitStatusCtxCancelOnly pins the fix for the phantom deadline: a
// cancel-only context (no deadline) must make WaitStatusCtx wait
// indefinitely — not conjure a bounded server-side timeout — and return
// ctx's error promptly once canceled. Before the fix, the call parked
// the server on a fabricated 24-hour timeout that ignored ctx.Done().
func TestWaitStatusCtxCancelOnly(t *testing.T) {
	_, rc, tcs := newCluster(t, 2)
	srv := &ControlServer{RC: rc, JSA: NewJSA(rc)}
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

	var gate atomic.Bool
	p := appParams{n: 16, iters: 16, ckEvery: 4, gateAt: 8, gate: &gate}
	if err := rc.Launch(p.spec("parked"), 2, false); err != nil {
		t.Fatal(err)
	}

	type res struct {
		st  AppStatus
		err error
	}
	got := make(chan res, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		st, err := cl.WaitStatusCtx(ctx, "parked")
		got <- res{st, err}
	}()

	select {
	case r := <-got:
		t.Fatalf("WaitStatusCtx returned (%v, %v) while the app still runs", r.st, r.err)
	case <-time.After(500 * time.Millisecond):
	}
	cancel()
	select {
	case r := <-got:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitStatusCtx ignored cancelation: phantom deadline is back")
	}

	gate.Store(true)
	if _, err := rc.WaitApp("parked"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}

// TestWaitStatusCtxSpansChunks drives the chunked wait across several
// server round trips: with the chunk shrunk to 50 ms, an app that parks
// for ~300 ms forces multiple "still running" replies before the real
// settle arrives — the indefinite wait must ride through all of them.
func TestWaitStatusCtxSpansChunks(t *testing.T) {
	old := waitChunk
	waitChunk = 50 * time.Millisecond
	defer func() { waitChunk = old }()

	_, rc, tcs := newCluster(t, 2)
	srv := &ControlServer{RC: rc, JSA: NewJSA(rc)}
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

	var gate atomic.Bool
	p := appParams{n: 16, iters: 16, ckEvery: 4, gateAt: 8, gate: &gate}
	if err := rc.Launch(p.spec("chunked"), 2, false); err != nil {
		t.Fatal(err)
	}

	type res struct {
		st  AppStatus
		err error
	}
	got := make(chan res, 1)
	go func() {
		st, err := cl.WaitStatusCtx(context.Background(), "chunked")
		got <- res{st, err}
	}()
	time.Sleep(300 * time.Millisecond) // several wait chunks elapse parked
	gate.Store(true)

	select {
	case r := <-got:
		if r.err != nil || r.st != StatusFinished {
			t.Fatalf("WaitStatusCtx = (%v, %v), want (finished, nil)", r.st, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitStatusCtx never observed the settle across chunks")
	}
	for _, tc := range tcs {
		tc.Stop()
	}
}
