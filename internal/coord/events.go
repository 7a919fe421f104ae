package coord

import "sync"

// Event delivery. The RC's emit path must never block the control plane
// (failure detection and recovery run on the same goroutines), but it
// must also never lose terminal telemetry: an app-stalled or
// ckpt-quarantined that vanishes because a drmsctl reader was slow is a
// silent lie about the system's state. Each subscriber therefore owns a
// bounded queue with two-tier semantics:
//
//   - terminal/settle events (app-finished, app-killed, app-stalled,
//     ckpt-quarantined) are always enqueued and held until the consumer
//     takes them — they are exempt from the bound;
//   - non-terminal events (heartbeat chatter, pool changes, recovery
//     progress) are coalesced under backpressure: when the queue holds
//     `bound` of them, the oldest non-terminal event is dropped to make
//     room, and every drop is counted in the registry
//     (drms_coord_events_dropped_total).
//
// A pump goroutine per subscriber moves queued events onto the channel
// the consumer ranges over, so emit itself never touches a channel that
// a stranger controls the far end of.

// terminalEvent reports whether an event carries terminal/settle
// telemetry that must never be dropped.
func terminalEvent(k EventKind) bool {
	switch k {
	case EventAppFinished, EventAppKilled, EventAppStalled, EventCkptQuarantined:
		return true
	}
	return false
}

// defaultEventBound is the per-subscriber cap on queued non-terminal
// events (terminal events are exempt and unbounded).
const defaultEventBound = 1024

type eventSub struct {
	ch   chan Event
	done chan struct{} // closed by close(); releases a blocked delivery

	mu      sync.Mutex
	queue   []Event
	nonTerm int // non-terminal events currently queued
	bound   int
	wake    chan struct{} // 1-buffered doorbell for the pump
	closed  bool
}

func newEventSub(bound int) *eventSub {
	if bound < 1 {
		bound = defaultEventBound
	}
	s := &eventSub{
		ch:    make(chan Event, 64),
		done:  make(chan struct{}),
		bound: bound,
		wake:  make(chan struct{}, 1),
	}
	go s.pump()
	return s
}

// publish enqueues one event; never blocks.
func (s *eventSub) publish(e Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if !terminalEvent(e.Kind) {
		if s.nonTerm >= s.bound {
			s.dropOldestNonTerminalLocked()
		}
		s.nonTerm++
	}
	s.queue = append(s.queue, e)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dropOldestNonTerminalLocked coalesces the queue under backpressure:
// the stalest non-terminal event makes room, counted in the registry.
// Terminal events are never candidates — the terminal drop counter
// exists to prove that invariant stays 0, not to be incremented.
func (s *eventSub) dropOldestNonTerminalLocked() {
	for i := range s.queue {
		if !terminalEvent(s.queue[i].Kind) {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.nonTerm--
			coordEventsDropped.Inc()
			return
		}
	}
	// Unreachable while nonTerm > 0; kept as a tripwire.
	coordEventsDropped.Inc()
	coordTerminalEventsDropped.Inc()
}

// pump delivers queued events to the subscriber's channel, applying
// backpressure by simply holding the queue while the consumer stalls.
func (s *eventSub) pump() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.mu.Unlock()
			<-s.wake
			s.mu.Lock()
		}
		if len(s.queue) == 0 { // closed and drained
			s.mu.Unlock()
			return
		}
		e := s.queue[0]
		s.queue = s.queue[1:]
		if len(s.queue) == 0 {
			s.queue = nil // let the flood's backing array go
		}
		if !terminalEvent(e.Kind) {
			s.nonTerm--
		}
		s.mu.Unlock()
		select {
		case s.ch <- e:
		case <-s.done:
			return
		}
	}
}

func (s *eventSub) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Subscribe returns an independent event stream (the user-interface
// channel) with the default non-terminal bound, two-tier as described
// above. A coordinator nobody subscribed to queues nothing. cancel
// releases the subscription; the channel is never closed, it just stops
// receiving. Subscribing after (or racing) Close is safe: the
// subscription is stillborn — its pump exits immediately instead of
// leaking, and the channel simply never receives.
func (rc *RC) Subscribe() (events <-chan Event, cancel func()) {
	s := newEventSub(defaultEventBound)
	rc.subMu.Lock()
	if rc.subsClosed {
		// Shutdown already swept the subscriber list; registering now
		// would leave a pump goroutine nobody ever closes.
		rc.subMu.Unlock()
		s.close()
		return s.ch, func() {}
	}
	rc.subs = append(rc.subs, s)
	rc.subMu.Unlock()
	return s.ch, func() {
		rc.subMu.Lock()
		for i, q := range rc.subs {
			if q == s {
				rc.subs = append(rc.subs[:i], rc.subs[i+1:]...)
				break
			}
		}
		rc.subMu.Unlock()
		s.close()
	}
}

func (rc *RC) emit(e Event) {
	rc.subMu.Lock()
	subs := append([]*eventSub(nil), rc.subs...)
	rc.subMu.Unlock()
	for _, s := range subs {
		s.publish(e)
	}
}
