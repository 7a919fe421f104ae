package coord

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// TC is the client side of a task coordinator: the daemon that runs on
// each processor of a DRMS-managed system, registers the processor with
// the resource coordinator, and proves liveness with heartbeats. In the
// paper every processor runs one TC; here a TC is a goroutine holding a
// real TCP connection, so failure detection exercises the same code path
// a distributed deployment would.
type TC struct {
	node int

	mu      sync.Mutex
	conn    net.Conn
	epoch   int64 // lease epoch: bumped on every (re)connection
	stopped bool
	ticker  *time.Ticker
	done    chan struct{}
}

// StartTC connects a task coordinator for the given processor to the RC
// and begins heartbeating at the given interval (which must be well under
// the RC's heartbeat timeout).
func StartTC(rcAddr string, node int, interval time.Duration) (*TC, error) {
	conn, err := net.Dial("tcp", rcAddr)
	if err != nil {
		return nil, fmt.Errorf("coord: TC %d cannot reach RC: %w", node, err)
	}
	tc := &TC{node: node, conn: conn, epoch: 1,
		ticker: time.NewTicker(interval), done: make(chan struct{})}
	if err := tc.send(tcMsg{Kind: "hello", Node: node, Epoch: 1}); err != nil {
		conn.Close()
		return nil, err
	}
	go tc.heartbeatLoop()
	return tc, nil
}

// Node returns the processor this TC controls.
func (tc *TC) Node() int { return tc.node }

// Epoch returns the TC's current lease epoch (1 on first connection,
// +1 per Reconnect).
func (tc *TC) Epoch() int64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.epoch
}

func (tc *TC) send(m tcMsg) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.sendLocked(m)
}

// sendLocked writes one message on the current connection; tc.mu held.
func (tc *TC) sendLocked(m tcMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if tc.stopped {
		return fmt.Errorf("coord: TC %d stopped", tc.node)
	}
	_, err = tc.conn.Write(append(b, '\n'))
	return err
}

// Reconnect re-registers this TC with a (possibly restarted, possibly
// different) coordinator. The hello carries the next lease epoch, so
// the coordinator can tell this surviving registration lineage from a
// new claimant of the node id. The heartbeat loop carries over to the
// new connection; the hello goes out under the same lock as the swap,
// so no heartbeat can reach the coordinator ahead of it (a connection
// that opens with anything but a hello is dropped).
func (tc *TC) Reconnect(rcAddr string) error {
	conn, err := net.Dial("tcp", rcAddr)
	if err != nil {
		return fmt.Errorf("coord: TC %d cannot reach RC: %w", tc.node, err)
	}
	tc.mu.Lock()
	if tc.stopped {
		tc.mu.Unlock()
		conn.Close()
		return fmt.Errorf("coord: TC %d stopped", tc.node)
	}
	old := tc.conn
	tc.conn = conn
	tc.epoch++
	err = tc.sendLocked(tcMsg{Kind: "hello", Node: tc.node, Epoch: tc.epoch})
	tc.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return err
}

func (tc *TC) heartbeatLoop() {
	for {
		select {
		case <-tc.done:
			return
		case <-tc.ticker.C:
			// A send error is not fatal to the loop: the connection may be
			// mid-Reconnect after a coordinator restart, and the next tick
			// heartbeats the replacement. Stop/Fail end the loop via done.
			tc.send(tcMsg{Kind: "hb", Node: tc.node})
		}
	}
}

// Stop deregisters gracefully: the RC treats this as an orderly shutdown,
// not a processor failure.
func (tc *TC) Stop() {
	tc.send(tcMsg{Kind: "bye", Node: tc.node})
	tc.halt()
}

// Fail simulates a processor failure: the connection drops abruptly, with
// no goodbye — exactly what the RC's failure detector watches for.
func (tc *TC) Fail() {
	tc.halt()
}

func (tc *TC) halt() {
	tc.mu.Lock()
	if tc.stopped {
		tc.mu.Unlock()
		return
	}
	tc.stopped = true
	tc.mu.Unlock()
	tc.ticker.Stop()
	close(tc.done)
	tc.conn.Close()
}

// Pool starts TCs for the processors [0, n) against one RC — the usual
// bring-up of a whole machine. It waits until the RC has registered all
// of them (via its available-node count) or the timeout elapses.
func Pool(rc *RC, n int, interval, timeout time.Duration) ([]*TC, error) {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return PoolNodes(rc, nodes, interval, timeout)
}

// PoolNodes starts TCs for the given processor ids against one RC — the
// bring-up of one shard's slice of a machine. It waits until the RC has
// at least len(nodes) free processors or the timeout elapses.
func PoolNodes(rc *RC, nodes []int, interval, timeout time.Duration) ([]*TC, error) {
	tcs := make([]*TC, 0, len(nodes))
	for _, n := range nodes {
		tc, err := StartTC(rc.Addr(), n, interval)
		if err != nil {
			return nil, err
		}
		tcs = append(tcs, tc)
	}
	deadline := time.Now().Add(timeout)
	for len(rc.AvailableNodes()) < len(nodes) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("coord: only %d of %d TCs registered in %v",
				len(rc.AvailableNodes()), len(nodes), timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return tcs, nil
}
