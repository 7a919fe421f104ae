package coord

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
)

// Control-plane sharding. A fleet runs N coordinator replicas, each
// owning a deterministic hash-slice of the application namespace (and a
// slice of the processors), fronted by a thin stateless gateway that
// speaks the same control protocol: ops that name an application are
// routed to the owning shard, fleet-wide reads (nodes, apps, events)
// fan out and merge. The gateway holds no state of its own — any number
// of them can run, die, and restart with no recovery story, because
// every fact lives in a shard's (self-checkpointing) coordinator.

// ShardOf deterministically maps an application name to its owning
// shard among n. The hash is FNV-1a, stable across processes and
// restarts — the shard map is a pure function, so gateways need no
// coordination to agree on placement.
func ShardOf(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// Gateway fronts a sharded control-plane fleet with the control
// protocol. It is deliberately stateless: each request dials the owning
// shard (or all shards, for fleet-wide reads), relays, and merges.
type Gateway struct {
	shards []string // control addresses, index = shard id
	ln     net.Listener
}

// NewGateway builds a gateway over the given shard control addresses
// (index = shard id).
func NewGateway(shardAddrs []string) (*Gateway, error) {
	if len(shardAddrs) == 0 {
		return nil, fmt.Errorf("coord: gateway needs at least one shard address")
	}
	return &Gateway{shards: append([]string(nil), shardAddrs...)}, nil
}

// Shards returns the fleet size.
func (g *Gateway) Shards() int { return len(g.shards) }

// Serve starts listening on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (g *Gateway) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	g.ln = ln
	go serveJSONLines(ln, g.route)
	return ln.Addr().String(), nil
}

// Close stops accepting gateway connections.
func (g *Gateway) Close() {
	if g.ln != nil {
		g.ln.Close()
	}
}

// route dispatches one request: fleet-wide reads to every shard with a
// merge, singletons to shard 0, and everything else — every op that
// names an application — to the shard owning the name, which also
// answers an op it does not know.
func (g *Gateway) route(req Request) Response {
	switch req.Op {
	case "nodes", "apps", "events":
		// Shards own disjoint processor slices and application names: the
		// fleet's view is the union of whatever the op makes each report.
		fleet := Response{OK: true}
		err := g.fanout(req, func(r Response) {
			fleet.Nodes = append(fleet.Nodes, r.Nodes...)
			fleet.Apps = append(fleet.Apps, r.Apps...)
			fleet.Events = append(fleet.Events, r.Events...)
			fleet.Queued += r.Queued
		})
		if err != nil {
			return Response{Error: err.Error()}
		}
		sort.Ints(fleet.Nodes)
		sort.Slice(fleet.Apps, func(i, j int) bool { return fleet.Apps[i].Name < fleet.Apps[j].Name })
		return fleet

	case "failnode":
		// The gateway does not know which shard owns a processor; ask each
		// in turn until one does.
		var last Response
		for shard := range g.shards {
			last = g.forward(shard, req)
			if last.OK {
				return last
			}
		}
		return last

	case "verify", "stats":
		// Shard-agnostic singletons: checkpoints live on the shared file
		// system, and the metrics registry is process-wide in drmsd, so
		// any shard answers for the fleet. Route to shard 0.
		return g.forward(0, req)
	}
	return g.forward(ShardOf(req.Name, len(g.shards)), req)
}

// forward relays one request to one shard verbatim, stamping the shard
// id into the response.
func (g *Gateway) forward(shard int, req Request) Response {
	c, err := DialControl(g.shards[shard])
	if err != nil {
		return Response{Error: fmt.Sprintf("shard %d unreachable: %v", shard, err), Shard: shard}
	}
	defer c.Close()
	resp, err := c.DoRaw(req)
	if err != nil {
		return Response{Error: fmt.Sprintf("shard %d: %v", shard, err), Shard: shard}
	}
	resp.Shard = shard
	return resp
}

// fanout relays one request to every shard and feeds each successful
// response to merge (in shard order). A shard-level failure fails the
// whole read: a partial fleet view silently missing applications is
// worse than an error.
func (g *Gateway) fanout(req Request, merge func(Response)) error {
	for shard := range g.shards {
		resp := g.forward(shard, req)
		if !resp.OK {
			return fmt.Errorf("shard %d: %s", shard, resp.Error)
		}
		merge(resp)
	}
	return nil
}
