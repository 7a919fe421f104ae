package coord

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"drms/internal/apps"
	"drms/internal/ckpt"
	"drms/internal/obs"
)

// The control protocol is the UIC surface of Figure 6 in daemon form: a
// JSON-lines request/response protocol over TCP through which users and
// tools drive a running DRMS installation — submit jobs (the three
// benchmark kernels are the installed applications), query processors and
// applications, arm system-initiated checkpoints, stop and reconfigure
// jobs, verify archived state, and (for failure drills) take a processor
// down. cmd/drmsd serves it; drmsctl -connect speaks it.

// maxProtoLine bounds one JSON line on the coordination wire — both the
// control protocol (requests carry application specs, responses carry
// event batches) and the RC/TC channel. The bufio.Scanner default of
// 64 KiB silently kills the connection under a large message as a
// spurious "protocol error"; 16 MiB comfortably covers any spec or
// event batch while still bounding a hostile peer's memory use.
const maxProtoLine = 16 << 20

// newLineScanner reads the coordination wire's JSON lines from r. Its
// buffer starts at 4 KiB, which holds every routine message, and doubles
// as far as maxProtoLine only for the line that needs it: a connection
// per TC incarnation costs 4 KiB, not 64.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4<<10), maxProtoLine)
	return sc
}

// Request is one control message.
type Request struct {
	Op      string `json:"op"`
	Name    string `json:"name,omitempty"`   // application name
	Kernel  string `json:"kernel,omitempty"` // bt | lu | sp
	Class   string `json:"class,omitempty"`  // S | W | A
	Min     int    `json:"min,omitempty"`    // task range for submit
	Max     int    `json:"max,omitempty"`
	Tasks   int    `json:"tasks,omitempty"` // reconfigure target
	Iters   int    `json:"iters,omitempty"`
	CkEvery int    `json:"ck_every,omitempty"`
	Node    int    `json:"node,omitempty"`   // failnode
	Prefix  string `json:"prefix,omitempty"` // verify
	// Recover puts the submitted job under the recovery supervisor even
	// when the daemon was not started with -auto-recover: failures then
	// trigger autonomous reconfigure-and-restart from the newest
	// verified checkpoint generation instead of a terminal status.
	Recover bool `json:"recover,omitempty"`
	// TimeoutMS bounds a blocking op ("wait"): how long the server may
	// park before replying with the still-running state.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// ScaleMin / ScaleMax, when ScaleMax > 0, put a submitted job under
	// the daemon's autoscaler (drmsd -autoscale): the job's task count
	// elastically follows pool pressure between the two bounds through
	// in-flight resizes.
	ScaleMin int `json:"scale_min,omitempty"`
	ScaleMax int `json:"scale_max,omitempty"`
	// Version carries the state version an "open" returned into a
	// mutating op ("checkpoint", "stop", "resize"): the server rejects the
	// op if the application's state has advanced past it (see api.go),
	// and rejects one without a version.
	Version uint64 `json:"version,omitempty"`
}

// Response is the reply to one Request.
type Response struct {
	OK     bool      `json:"ok"`
	Error  string    `json:"error,omitempty"`
	Nodes  []int     `json:"nodes,omitempty"`
	Apps   []AppInfo `json:"apps,omitempty"`
	App    *AppInfo  `json:"app,omitempty"`
	Events []Event   `json:"events,omitempty"`
	Queued int       `json:"queued,omitempty"`
	// Stats is the "stats" op's snapshot of the daemon's metrics
	// registry, rendered in the Prometheus text format — the same view
	// the opt-in /metrics listener serves.
	Stats string `json:"stats,omitempty"`
	// Version is the application's state version after this op ("open"
	// and successful versioned mutations) — feed it into the next
	// mutation's Request.Version to chain ops race-free.
	Version uint64 `json:"version,omitempty"`
	// Shard identifies the control-plane shard that served the request
	// (0 for a solo coordinator); the gateway passes it through so
	// clients can see where their application landed.
	Shard int `json:"shard,omitempty"`
}

// ControlServer exposes an RC/JSA pair over the control protocol.
type ControlServer struct {
	RC  *RC
	JSA *JSA
	// FailNode, if non-nil, simulates a failure of the given processor
	// (wired to the daemon's in-process TCs for drills).
	FailNode func(node int) error
	// Recovery, if non-nil, is the default recovery policy applied to
	// every submitted job (drmsd -auto-recover): jobs become supervised
	// and restart autonomously after failures. A submit with "recover"
	// set opts a single job in even when this is nil, under the zero
	// policy (all defaults).
	Recovery *RecoveryPolicy
	// Quota, when > 0, caps how many applications one tenant may have
	// admitted (queued or not yet settled) on this shard at once. The
	// tenant is the application name's prefix before the first "/"
	// ("acme/solver" belongs to acme); names without one share the
	// "default" tenant. Enforced at the owning shard, where the
	// authoritative tables live.
	Quota int
	// Shard is stamped into every response so gateway clients can see
	// which control-plane shard served them.
	Shard int

	ln net.Listener
	// events is the server's own subscription, which the "events" op
	// drains: terminal events wait there until a client takes them, and
	// non-terminal ones coalesce at the subscription's bound (events.go).
	events <-chan Event
	cancel func()
}

// Serve starts listening on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address. The server subscribes to the RC's
// events; clients poll them with the "events" op.
func (s *ControlServer) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.events, s.cancel = s.RC.Subscribe()
	go serveJSONLines(ln, s.handle)
	return ln.Addr().String(), nil
}

// Close stops accepting control connections and cancels the event
// subscription. Idempotent.
func (s *ControlServer) Close() {
	if s.ln == nil {
		return
	}
	s.ln.Close()
	s.cancel()
}

// serveJSONLines accepts connections on ln until it closes and answers
// every JSON line a connection sends with handle's response, one
// goroutine per connection: the control protocol's framing, the same for
// a shard's server and the gateway in front of the fleet.
func serveJSONLines(ln net.Listener, handle func(Request) Response) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			sc := newLineScanner(conn)
			enc := json.NewEncoder(conn)
			for sc.Scan() {
				if err := enc.Encode(answer(sc.Bytes(), handle)); err != nil {
					return
				}
			}
		}()
	}
}

// answer is the control protocol's reply to one request line: handle's
// response to the request it decodes to, or an error response naming why
// it does not decode.
func answer(line []byte, handle func(Request) Response) Response {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Response{Error: "malformed request: " + err.Error()}
	}
	return handle(req)
}

func (s *ControlServer) handle(req Request) Response {
	resp := s.handleOp(req)
	resp.Shard = s.Shard
	return resp
}

// tenantOf maps an application name to its admission tenant: the prefix
// before the first "/", or "default" for unprefixed names.
func tenantOf(name string) string {
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return "default"
}

// admittedLocked counts the tenant's applications not yet settled in
// the RC — the coordinator's half of the admission count (the JSA adds
// its queued and in-flight jobs, see JSA.admittedLocked). rc.mu must be
// held.
func (rc *RC) admittedLocked(tenant string) int {
	n := 0
	for name, app := range rc.apps {
		if tenantOf(name) != tenant {
			continue
		}
		switch app.Status {
		case StatusRunning, StatusRecovering:
			n++
		}
	}
	return n
}

func (s *ControlServer) handleOp(req Request) Response {
	fail := func(err error) Response { return Response{Error: err.Error()} }
	switch req.Op {
	case "nodes":
		return Response{OK: true, Nodes: s.RC.AvailableNodes()}

	case "apps":
		return Response{OK: true, Apps: s.RC.Apps(), Queued: s.JSA.Queued()}

	case "status", "wait":
		if req.Op == "wait" {
			// Blocking status: parks on the application's settle channel
			// (no polling) and replies once it leaves the running state or
			// the request's timeout elapses. Blocks only this connection —
			// each control connection is served by its own goroutine.
			timeout := time.Duration(req.TimeoutMS) * time.Millisecond
			if timeout <= 0 {
				timeout = 60 * time.Second
			}
			// A settled application's own terminal error (e.g. it was
			// killed after a processor failure) is part of the reported
			// state, not a failure of the wait itself.
			if _, settled, err := s.RC.WaitAppSettled(req.Name, timeout); err != nil && !settled {
				return fail(err)
			}
		}
		info, ok := s.RC.App(req.Name)
		if !ok {
			return fail(fmt.Errorf("unknown application %q", req.Name))
		}
		return Response{OK: true, App: &info}

	case "submit":
		k, err := apps.ByName(req.Kernel)
		if err != nil {
			return fail(err)
		}
		class := apps.ClassS
		if req.Class != "" {
			class = apps.Class(req.Class[0])
			if _, err := apps.GridSize(class); err != nil {
				return fail(err)
			}
		}
		iters := req.Iters
		if iters <= 0 {
			iters = 20
		}
		ckEvery := req.CkEvery
		if ckEvery <= 0 {
			ckEvery = 5
		}
		minT, maxT := req.Min, req.Max
		if minT <= 0 {
			minT = 1
		}
		if maxT < minT {
			maxT = minT
		}
		spec := AppSpec{Name: req.Name, Body: k.App(apps.RunConfig{
			Class: class, Iters: iters, CkEvery: ckEvery, Prefix: req.Name, EnableSOP: false,
		})}
		switch {
		case s.Recovery != nil:
			p := *s.Recovery // copy: policies are per-application state
			spec.Recovery = &p
		case req.Recover:
			spec.Recovery = &RecoveryPolicy{}
		}
		if req.ScaleMax > 0 {
			spec.Scale = &ScalePolicy{Min: req.ScaleMin, Max: req.ScaleMax}
		}
		// Quota enforcement lives inside the JSA's submit path, atomic with
		// the enqueue — two concurrent submits for one tenant serialize
		// there instead of both passing a pre-check.
		if err := s.JSA.SubmitQuota(Job{Spec: spec, Min: minT, Max: maxT}, s.Quota); err != nil {
			return fail(err)
		}
		return Response{OK: true, Queued: s.JSA.Queued()}

	case "open":
		// Open a versioned handle: the response's Version feeds the next
		// mutating op, which is then rejected if anyone got there first.
		h, info, err := s.RC.OpenApp(req.Name)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, App: &info, Version: h.Version}

	case "checkpoint", "stop", "resize":
		// The versioned mutations. "resize" is the in-flight one: the
		// application changes task count at its next SOP without stopping —
		// the elastic alternative to "reconfigure". Each takes the version
		// an "open" returned, and is rejected if that version is stale.
		if req.Version == 0 {
			return fail(fmt.Errorf("coord: %s of %q needs the version an \"open\" of it returned", req.Op, req.Name))
		}
		h := AppHandle{App: req.Name, Version: req.Version}
		var err error
		switch req.Op {
		case "checkpoint":
			h, err = s.RC.CheckpointApp(h)
		case "stop":
			h, err = s.RC.StopApp(h)
		default:
			h, err = s.RC.ResizeApp(h, req.Tasks)
		}
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Version: h.Version}

	case "reconfigure":
		if err := s.JSA.Reconfigure(req.Name, req.Tasks, 60*time.Second); err != nil {
			return fail(err)
		}
		return Response{OK: true}

	case "failnode":
		if s.FailNode == nil {
			return fail(fmt.Errorf("failure injection not enabled"))
		}
		if err := s.FailNode(req.Node); err != nil {
			return fail(err)
		}
		return Response{OK: true}

	case "verify":
		if err := ckpt.Verify(s.RC.fs, req.Prefix, 0); err != nil {
			return fail(err)
		}
		return Response{OK: true}

	case "events":
		// Whatever the subscription holds now, without waiting for more.
		var evs []Event
		for {
			select {
			case e := <-s.events:
				evs = append(evs, e)
				continue
			default:
			}
			return Response{OK: true, Events: evs}
		}

	case "stats":
		// Snapshot of the daemon's metrics registry (drmsctl -op stats):
		// checkpoint/recovery latency histograms, plan-cache hit rates,
		// pool size — the Tables 3-5 quantities, live.
		return Response{OK: true, Stats: obs.Default.Render()}
	}
	return fail(fmt.Errorf("unknown op %q", req.Op))
}

// Apps returns a snapshot of every application the RC knows about.
func (rc *RC) Apps() []AppInfo {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]AppInfo, 0, len(rc.apps))
	for name, app := range rc.apps {
		out = append(out, appInfoLocked(name, app))
	}
	return out
}

// ControlClient speaks the control protocol.
type ControlClient struct {
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
}

// DialControl connects to a control server.
func DialControl(addr string) (*ControlClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := newLineScanner(conn)
	return &ControlClient{conn: conn, sc: sc, enc: json.NewEncoder(conn)}, nil
}

// Close releases the connection.
func (c *ControlClient) Close() { c.conn.Close() }

// Do sends one request and waits for its response. A response with OK
// false is returned as an error.
func (c *ControlClient) Do(req Request) (Response, error) {
	resp, err := c.DoRaw(req)
	if err != nil {
		return resp, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("coord: %s", resp.Error)
	}
	return resp, nil
}

// DoRaw sends one request and returns the response as the server sent
// it — an application-level failure (OK false) is the caller's to
// interpret, not an error. The gateway uses it to relay shard responses
// verbatim.
func (c *ControlClient) DoRaw(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	if !c.sc.Scan() {
		return Response{}, fmt.Errorf("coord: control connection closed")
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// WaitStatus blocks until the named application leaves the running state
// and returns its final status. The wait is event-driven end to end: a
// single "wait" round-trip parks the server on the application's settle
// channel (no polling on either side), bounded by a context deadline
// derived from timeout.
func (c *ControlClient) WaitStatus(name string, timeout time.Duration) (AppStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.WaitStatusCtx(ctx, name)
}

// waitChunk bounds one server-side park of the chunked wait loop; a
// package variable so tests can compress the loop.
var waitChunk = 10 * time.Second

// WaitStatusCtx is WaitStatus bounded by a caller-supplied context. A
// context without a deadline waits indefinitely — the wait is a loop of
// bounded server-side parks (each one event-driven, no polling between
// round trips), re-parking as long as the application is running. The
// context is honored throughout: cancellation interrupts even a
// mid-flight round trip, at the cost of the connection (an interrupted
// read leaves the protocol stream unsynchronized, so the client must
// redial for further requests).
func (c *ControlClient) WaitStatusCtx(ctx context.Context, name string) (AppStatus, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	start := time.Now()
	deadline, bounded := ctx.Deadline()
	for {
		chunk := waitChunk
		if bounded {
			if remain := time.Until(deadline); remain < chunk {
				chunk = remain
			}
		}
		ms := chunk.Milliseconds()
		if ms <= 0 {
			ms = 1 // the server treats <=0 as "pick a default"
		}
		resp, err := c.doInterruptible(ctx, Request{Op: "wait", Name: name, TimeoutMS: ms})
		if err != nil {
			if ctx.Err() != nil {
				return "", ctx.Err()
			}
			return "", err
		}
		if resp.App == nil {
			return "", fmt.Errorf("coord: wait reply carries no application state")
		}
		switch resp.App.Status {
		case StatusRunning, StatusRecovering:
			// Not settled. A supervised application observed mid-recovery —
			// or mid-resize, which never leaves the running state — is a
			// transition, not a terminal verdict: re-park until the settle
			// channel actually closes or the deadline passes. (A bounded
			// server-side wait replies with whatever state it saw at its
			// timeout, so "recovering" can surface here without the
			// application being anywhere near settled.)
		default:
			return resp.App.Status, nil
		}
		if bounded && time.Until(deadline) <= 0 {
			return resp.App.Status, fmt.Errorf("coord: %q still %s after %v",
				name, resp.App.Status, time.Since(start).Round(time.Millisecond))
		}
		if err := ctx.Err(); err != nil {
			return "", err
		}
	}
}

// doInterruptible is Do with cancellation. A healthy round trip is
// untouched; once ctx is done a watcher gives the in-flight reply one
// second of wire grace (the server replies at its own bound, so a
// bounded wait's final answer is never cut off) and then closes the
// connection to force the blocked read to return.
func (c *ControlClient) doInterruptible(ctx context.Context, req Request) (Response, error) {
	if ctx.Done() == nil {
		return c.Do(req)
	}
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-finished:
			return
		case <-ctx.Done():
		}
		grace := time.NewTimer(time.Second)
		defer grace.Stop()
		select {
		case <-finished:
		case <-grace.C:
			c.conn.Close()
		}
	}()
	return c.Do(req)
}
