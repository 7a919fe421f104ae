package coord

import (
	"bytes"
	"fmt"
	"time"

	"drms/internal/frame"
)

// Control-plane persistence. With RCOptions.StatePrefix set, the
// coordinator's authoritative tables — the application records
// (status, pool, incarnation, lease, recovery budget, state version)
// and the lease allocator — are serialized into a ckpt.StateStore on
// every mutation, asynchronously batched by a persister goroutine, with
// synchronous flushes at the moments a crash must not forget (the sync
// rows of the transition table, before their announcement). The
// snapshot schema is deliberately plain data: function-valued spec
// fields (Body, Stream hooks, FaultNext, Pool) cannot cross a process
// lifetime, so a restarted coordinator re-binds them through
// RCOptions.Catalog (lease.go).

// appRecord is one application's persisted control-plane state; appState
// embeds it, so the live application and its record are one copy. walk
// is its stored format.
type appRecord struct {
	Name        string
	Status      AppStatus
	Tasks       int
	Nodes       []int
	Err         string
	Incarnation int
	Version     uint64
	Lease       int64

	// Supervisor state.
	Supervised   bool
	Budget       int
	Attempts     int
	LastResolved int
	FirstCause   string

	// Spec knobs that are plain data (the runnable parts — Body, Stream,
	// FaultNext, Pool — come back through the catalog).
	Keep        int
	Verify      bool
	AnchorEvery int
	Replicas    int
	DemoteEvery int
	SPMD        bool

	// Recovery policy numbers, valid when Supervised.
	PolicyBudget int
	Backoff      time.Duration
	BackoffMax   time.Duration
	StallPenalty int
}

// rcRecord is the coordinator's own persisted state.
type rcRecord struct {
	LeaseSeq int64
	Shard    int
	Shards   int
}

// A stored record (DESIGN.md §3g) is recordMagic and recordVersion, then
// the fields: a decoder refuses a version it does not know rather than
// misread it.
const (
	recordMagic   = "DRMSrecord"
	recordVersion = 1
)

type record interface{ walk(c *frame.Codec) }

// walk takes an appRecord's fields by kind, each kind in declaration
// order: the strings, the nodes, the version, the 64-bit numbers, the
// three flags, the ints.
func (r *appRecord) walk(c *frame.Codec) {
	c.Head(recordMagic, recordVersion)
	for _, s := range []*string{&r.Name, (*string)(&r.Status), &r.Err, &r.FirstCause} {
		c.Str(s)
	}
	frame.List(c, &r.Nodes, func(n *int) { frame.Varint(c, n) })
	c.Uvarint(&r.Version)
	for _, v := range []*int64{&r.Lease, (*int64)(&r.Backoff), (*int64)(&r.BackoffMax)} {
		frame.Varint(c, v)
	}
	c.Flags(&r.Supervised, &r.Verify, &r.SPMD)
	for _, v := range []*int{&r.Tasks, &r.Incarnation, &r.Budget, &r.Attempts, &r.LastResolved,
		&r.Keep, &r.AnchorEvery, &r.Replicas, &r.DemoteEvery, &r.PolicyBudget, &r.StallPenalty} {
		frame.Varint(c, v)
	}
}

func (r *rcRecord) walk(c *frame.Codec) {
	c.Head(recordMagic, recordVersion)
	frame.Varint(c, &r.LeaseSeq)
	frame.Varint(c, &r.Shard)
	frame.Varint(c, &r.Shards)
}

// decodeRecord decodes one persisted record into r: a frame, or a gob
// record an earlier coordinator wrote (legacy.go).
func decodeRecord(b []byte, r record) error {
	if !bytes.HasPrefix(b, []byte(recordMagic)) {
		return decodeGobRecord(b, r)
	}
	if err := frame.Decode(b, r.walk); err != nil {
		return fmt.Errorf("coord: corrupt state record: %w", err)
	}
	return nil
}

const rcRecordKey = "rc"

func appRecordKey(name string) string { return "app/" + name }

// dirtyLocked marks the control-plane state changed and rings the
// persister's doorbell. rc.mu must be held. A no-op without a store.
func (rc *RC) dirtyLocked() {
	if rc.store == nil {
		return
	}
	rc.dirty = true
	rc.ringPersistWake()
}

// ringPersistWake rings the persister's doorbell (non-blocking; the
// channel holds one pending wake). Safe under any lock.
func (rc *RC) ringPersistWake() {
	select {
	case rc.persistWake <- struct{}{}:
	default:
	}
}

// snapshotLocked renders the authoritative tables as the state store's
// record map. rc.mu must be held.
func (rc *RC) snapshotLocked() map[string][]byte {
	records := make(map[string][]byte, len(rc.apps)+1)
	rec := rcRecord{LeaseSeq: rc.leaseSeq, Shard: rc.opt.Shard, Shards: rc.opt.Shards}
	records[rcRecordKey] = frame.Encode(rec.walk)
	for name, app := range rc.apps {
		rec := app.appRecord
		rec.Name = name
		rec.Err, rec.FirstCause = errText(app.err), errText(app.firstCause)
		rec.setSpec(app.spec)
		records[appRecordKey(name)] = frame.Encode(rec.walk)
	}
	return records
}

// setSpec records the spec's plain-data knobs; appFromRecord reads them
// back when no catalog entry re-binds the name.
func (rec *appRecord) setSpec(spec AppSpec) {
	rec.Keep, rec.Verify, rec.AnchorEvery = spec.Keep, spec.Verify, spec.AnchorEvery
	rec.Replicas, rec.DemoteEvery, rec.SPMD = spec.Replicas, spec.DemoteEvery, spec.SPMD
	var pol RecoveryPolicy
	if rec.Supervised = spec.Recovery != nil; rec.Supervised {
		pol = spec.Recovery.withDefaults()
	}
	rec.PolicyBudget, rec.Backoff, rec.BackoffMax, rec.StallPenalty =
		pol.Budget, pol.Backoff, pol.BackoffMax, pol.StallPenalty
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// flushState commits a snapshot generation if the state is dirty. The
// transition function's synchronous call is the crash-consistency point
// of every sync row of its table.
//
// flushMu is held across the whole snapshot+Commit pair, so snapshot
// order equals commit order — the store assigns generation numbers at
// commit time, and without the serialization a racing persister flush
// could publish an OLDER snapshot under a NEWER generation, making
// recovery restore stale state. It also gives synchronous callers their
// durability guarantee: dirty is only observably false under flushMu
// after the commit that cleared it finished (a failed commit sets it
// back), so a sync caller that acquires flushMu and finds the state
// clean knows the commit covering its mutation is already on storage —
// it never returns, and announces, while that commit is still in flight.
func (rc *RC) flushState() error {
	if rc.store == nil {
		return nil
	}
	rc.flushMu.Lock()
	defer rc.flushMu.Unlock()
	rc.mu.Lock()
	// A crashed coordinator writes nothing more: its successor (RecoverRC)
	// owns the store now, and a lingering watcher goroutine of the dead
	// instance must not clobber the successor's newer generations.
	if !rc.dirty || rc.crashed {
		rc.mu.Unlock()
		return nil
	}
	records := rc.snapshotLocked()
	rc.dirty = false
	rc.mu.Unlock()
	if _, err := rc.store.Commit(rc.fs, records); err != nil {
		// Storage trouble: mark dirty again and re-ring the doorbell, so
		// the persister keeps retrying without waiting for another
		// mutation to arrive.
		rc.mu.Lock()
		rc.dirty = true
		rc.mu.Unlock()
		coordStateFlushErrors.Inc()
		rc.ringPersistWake()
		return err
	}
	coordStateSnapshots.Inc()
	rc.lastSnap.Store(time.Now().UnixNano())
	return nil
}

// persister batches asynchronous snapshot commits: every mutation rings
// the doorbell, the persister coalesces however many arrived since its
// last commit into one generation. On clean shutdown it flushes the
// final state; on a simulated crash (RC.Crash) flushState writes
// nothing — recovery must work from whatever was already committed.
func (rc *RC) persister() {
	defer close(rc.persistDone)
	for {
		select {
		case <-rc.persistWake:
			if err := rc.flushState(); err != nil {
				// The failed flush left dirty set and the doorbell rung;
				// give storage a beat before retrying instead of spinning.
				time.Sleep(10 * time.Millisecond)
			}
		case <-rc.stop:
			rc.flushState()
			return
		}
	}
}

// SyncState forces a synchronous snapshot commit of any pending state
// and reports the store's newest generation. ok=false when
// self-checkpointing is off.
func (rc *RC) SyncState() (gen int, ok bool) {
	if rc.store == nil {
		return -1, false
	}
	rc.flushState()
	return rc.store.LastGen(), true
}
