package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"drms/internal/pfs"
)

func newStateFS() *pfs.System {
	return pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
}

// legacyDeltaFS loads testdata/rcstate_deltas.pfs — a store the delta
// writer of earlier coordinators committed under "rcstate" with gob
// metadata: anchor g0 {a, b, c: v0}, delta g1 {a: v1}, delta g2 {b: v2}
// with a tombstone for c, so the table at g2 is {a: v1, b: v2} — and
// upgrades its generations, as drmsfsck -repair does.
func legacyDeltaFS(t *testing.T) *pfs.System {
	t.Helper()
	fs := gobDeltaFS(t)
	for g := range 3 {
		if up, err := Upgrade(fs, fmt.Sprintf("rcstate.g%d", g), 0); !up || err != nil {
			t.Fatalf("upgrade rcstate.g%d: upgraded %v, %v", g, up, err)
		}
	}
	return fs
}

// gobDeltaFS is legacyDeltaFS before the upgrade.
func gobDeltaFS(t *testing.T) *pfs.System {
	t.Helper()
	fs := newStateFS()
	if err := fs.LoadFile("testdata/rcstate_deltas.pfs"); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestStateStoreRefusesGobEraStore: Load refuses the store with
// ErrLegacyFormat and touches no file, before the metadata upgrade and
// after it (the images are gob still); the metadata upgrade rewrites only
// metadata, and a rerun finds nothing to do.
func TestStateStoreRefusesGobEraStore(t *testing.T) {
	fs := gobDeltaFS(t)
	before := fs.List("")
	if _, g, q, ok, err := (&StateStore{Base: "rcstate"}).Load(fs); ok || !errors.Is(err, ErrLegacyFormat) || len(q) != 0 {
		t.Fatalf("Load of a gob-era store: gen %d ok %v quarantined %v, %v", g, ok, q, err)
	}
	if after := fs.List(""); !slices.Equal(before, after) {
		t.Fatalf("files changed: %v -> %v", before, after)
	}
	fs = legacyDeltaFS(t)
	upgraded := fs.List("")
	if _, g, q, ok, err := (&StateStore{Base: "rcstate"}).Load(fs); ok || !errors.Is(err, ErrLegacyFormat) || len(q) != 0 {
		t.Fatalf("Load of a gob-image store: gen %d ok %v quarantined %v, %v", g, ok, q, err)
	}
	if after := fs.List(""); !slices.Equal(upgraded, after) {
		t.Fatalf("files changed: %v -> %v", upgraded, after)
	}
	for _, name := range before {
		if strings.HasSuffix(name, ".meta") {
			continue
		}
		if !bytes.Equal(fileBytes(t, fs, name), fileBytes(t, gobDeltaFS(t), name)) {
			t.Fatalf("the upgrade changed %s", name)
		}
	}
	for g := range 3 {
		if up, err := Upgrade(fs, fmt.Sprintf("rcstate.g%d", g), 0); up || err != nil {
			t.Fatalf("second upgrade of rcstate.g%d: upgraded %v, %v", g, up, err)
		}
	}
}

// legacyDeltaTable is the record table at the fixture's head, g2.
func legacyDeltaTable() map[string][]byte { return recs("a", "v1", "b", "v2") }

func recs(kv ...string) map[string][]byte {
	m := make(map[string][]byte, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = []byte(kv[i+1])
	}
	return m
}

func sameRecords(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d (%v vs %v)", len(got), len(want), keys(got), keys(want))
	}
	for name, rec := range want {
		if string(got[name]) != string(rec) {
			t.Fatalf("record %q = %q, want %q", name, got[name], rec)
		}
	}
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// assertAnchor fails unless the committed generation g is self-contained.
func assertAnchor(t *testing.T, fs *pfs.System, g int) {
	t.Helper()
	m, err := ReadMeta(fs, fmt.Sprintf("rcstate.g%d", g), 0)
	if err != nil || m.ChainLen != 0 || len(m.Deps) != 0 {
		t.Fatalf("g%d is not an anchor: chainlen %d deps %v err %v", g, m.ChainLen, m.Deps, err)
	}
}

func TestStateStoreRoundTrip(t *testing.T) {
	fs := newStateFS()
	st := &StateStore{Base: "rcstate"}
	want := recs("a", "alpha", "b", "beta")
	gen, err := st.Commit(fs, want)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 {
		t.Fatalf("first generation = %d, want 0", gen)
	}

	// A fresh store (a restarted coordinator) loads the same table.
	fresh := &StateStore{Base: "rcstate"}
	got, g, quarantined, ok, err := fresh.Load(fs)
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if g != 0 || len(quarantined) != 0 {
		t.Fatalf("loaded gen %d quarantined %v", g, quarantined)
	}
	sameRecords(t, got, want)
}

// upgradeDeltaFS is the fixture with its store upgraded, metadata first
// (metaFirst) or the store first, as drmsfsck -repair may order them.
func upgradeDeltaFS(t *testing.T, metaFirst bool) *pfs.System {
	t.Helper()
	fs := gobDeltaFS(t)
	if metaFirst {
		fs = legacyDeltaFS(t)
	}
	if g, q, err := (&StateStore{Base: "rcstate"}).Upgrade(fs); g != 3 || len(q) != 0 || err != nil {
		t.Fatalf("Upgrade: gen %d quarantined %v, %v", g, q, err)
	}
	for g := range 4 {
		if _, err := Upgrade(fs, fmt.Sprintf("rcstate.g%d", g), 0); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// The fixture's chain is a real delta chain, and Upgrade resolves it to
// the records it was written with; the anchor it commits, every
// generation this store commits on top of it, and those it commits on an
// empty store are self-contained anchors.
func TestStateStoreDeltaChainAndAnchors(t *testing.T) {
	fs := upgradeDeltaFS(t, true)
	if m, err := ReadMeta(fs, "rcstate.g2", 0); err != nil || m.ChainLen != 2 || len(m.Deps) != 2 {
		t.Fatalf("fixture g2 chain fields = len %d deps %v, want 2/[0 1] (%v)", m.ChainLen, m.Deps, err)
	}
	assertAnchor(t, fs, 3)
	st := &StateStore{Base: "rcstate"}
	table, _, _, _, err := st.Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, table, legacyDeltaTable())
	for i := 4; i <= 5; i++ {
		table["a"] = []byte(fmt.Sprintf("v%d", i))
		if gen, err := st.Commit(fs, table); err != nil || gen != i {
			t.Fatalf("commit %d: gen %d err %v", i, gen, err)
		}
		assertAnchor(t, fs, i)
	}
	got, g, _, ok, err := (&StateStore{Base: "rcstate"}).Load(fs)
	if err != nil || !ok || g != 5 {
		t.Fatalf("Load: gen=%d ok=%v err=%v", g, ok, err)
	}
	sameRecords(t, got, table)

	empty := newStateFS()
	for i := 0; i < 3; i++ {
		if _, err := (&StateStore{Base: "rcstate"}).Commit(empty, recs("a", fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		assertAnchor(t, empty, i)
	}
	if g, q, err := (&StateStore{Base: "rcstate"}).Upgrade(empty); g != -1 || len(q) != 0 || err != nil {
		t.Fatalf("Upgrade of a framed store: gen %d quarantined %v, %v", g, q, err)
	}
}

// Upgrade resolves the fixture's delta head whichever half of drmsfsck
// -repair ran first: g3 holds the head's table, Load reads it, and a
// second Upgrade finds nothing to do.
func TestStateStoreUpgradeResolvesDeltaHead(t *testing.T) {
	for _, metaFirst := range []bool{true, false} {
		fs := upgradeDeltaFS(t, metaFirst)
		st := &StateStore{Base: "rcstate"}
		table, g, _, ok, err := st.Load(fs)
		if err != nil || !ok || g != 3 || st.LastGen() != 3 {
			t.Fatalf("metaFirst=%v: Load: gen=%d last=%d ok=%v err=%v", metaFirst, g, st.LastGen(), ok, err)
		}
		sameRecords(t, table, legacyDeltaTable())
		if g, q, err := st.Upgrade(fs); g != -1 || len(q) != 0 || err != nil {
			t.Fatalf("metaFirst=%v: second Upgrade: gen %d quarantined %v, %v", metaFirst, g, q, err)
		}
	}
}

// TestStateImageBytesAreTheTable: the image is the sorted table, so equal
// tables commit equal segments whatever order the map iterates in.
func TestStateImageBytesAreTheTable(t *testing.T) {
	table := recs("b", "beta", "a", "alpha", "c", "")
	want := "DRMSstate\x01\x03\x01a\x05alpha\x01b\x04beta\x01c\x00"
	for range 8 {
		if got := string(encodeStateImage(table)); got != want {
			t.Fatalf("image %q, want %q", got, want)
		}
	}
	for _, bad := range []string{
		"DRMSstate\x01\x02\x01b\x00\x01a\x00", // keys out of order
		"DRMSstate\x01\x02\x01a\x00\x01a\x00", // a key twice
		"DRMSstate\x02\x00",                   // another version
		"DRMSstate\x01\x00\x00",               // a byte past the table
	} {
		if _, err := decodeStateImage([]byte(bad), "rcstate.g0"); !errors.As(err, new(*CorruptError)) {
			t.Errorf("%q decoded: %v", bad, err)
		}
	}
}

// A corrupt newest generation quarantines and resolution falls back to
// the next older one.
func TestStateStoreQuarantineFallback(t *testing.T) {
	fs := newStateFS()
	st := &StateStore{Base: "rcstate"}
	table := recs("a", "v0")
	if _, err := st.Commit(fs, table); err != nil { // g0
		t.Fatal(err)
	}
	table["a"] = []byte("v1")
	if _, err := st.Commit(fs, table); err != nil { // g1
		t.Fatal(err)
	}
	// Flip a byte in the newest generation's segment.
	corruptFile(t, fs, "rcstate.g1.seg")

	fresh := &StateStore{Base: "rcstate"}
	got, g, quarantined, ok, err := fresh.Load(fs)
	if !ok || g != 0 {
		t.Fatalf("Load after corruption: gen=%d ok=%v err=%v", g, ok, err)
	}
	sameRecords(t, got, recs("a", "v0"))
	if len(quarantined) == 0 {
		t.Fatal("corrupt generation was not quarantined")
	}
	// The damaged generation left the committed namespace (its files
	// carry the .bad. mark now), so the next commit never reuses g1.
	if fs.Exists("rcstate.g1.meta") {
		t.Fatal("corrupt generation still committed after quarantine")
	}
	if len(fs.List("rcstate.g1.bad.")) == 0 {
		t.Fatal("quarantined files not renamed under .bad.")
	}
}

// Damaging a legacy delta's base (which the head's own verification does
// not cover) makes Upgrade quarantine the head, not commit a
// half-materialized table: the fixture's g2 needs g1, so with g1 damaged
// both leave and the anchor g0's table is what g3 holds.
func TestStateStoreBrokenChainQuarantinesHead(t *testing.T) {
	fs := legacyDeltaFS(t)
	corruptFile(t, fs, "rcstate.g1.seg")

	st := &StateStore{Base: "rcstate"}
	g, quarantined, err := st.Upgrade(fs)
	if g != 3 || err != nil || !slices.Equal(quarantined, []string{"rcstate.g2", "rcstate.g1"}) {
		t.Fatalf("Upgrade with a broken chain: gen %d quarantined %v, %v", g, quarantined, err)
	}
	if fs.Exists("rcstate.g2.meta") || len(fs.List("rcstate.g2.bad.")) == 0 {
		t.Fatal("the head whose base is damaged was not quarantined")
	}
	got, g, _, ok, err := st.Load(fs)
	if !ok || g != 3 || err != nil {
		t.Fatalf("Load: gen=%d ok=%v err=%v", g, ok, err)
	}
	sameRecords(t, got, recs("a", "v0", "b", "v0", "c", "v0"))
}

// A torn commit (segment written, meta missing) is swept at Load and
// never resolved to.
func TestStateStoreTornCommitIgnored(t *testing.T) {
	fs := newStateFS()
	st := &StateStore{Base: "rcstate"}
	if _, err := st.Commit(fs, recs("a", "v0")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-commit of g1: payload present, no meta.
	fs.Create("rcstate.g1.seg")
	if err := fs.WriteAt(0, "rcstate.g1.seg", []byte("torn"), 0); err != nil {
		t.Fatal(err)
	}
	fresh := &StateStore{Base: "rcstate"}
	got, g, _, ok, err := fresh.Load(fs)
	if err != nil || !ok || g != 0 {
		t.Fatalf("Load: gen=%d ok=%v err=%v", g, ok, err)
	}
	sameRecords(t, got, recs("a", "v0"))
	if fs.Exists("rcstate.g1.seg") {
		t.Fatal("torn segment not swept by Load")
	}
}

// Pruning keeps the newest four generations but never breaks a retained
// legacy delta's chain: the fixture's anchor g0 survives while g1 or g2
// is retained, and goes with them.
func TestStateStorePruneKeepsChainDeps(t *testing.T) {
	fs := upgradeDeltaFS(t, true)
	st := &StateStore{Base: "rcstate"}
	table, _, _, ok, err := st.Load(fs)
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	for i := 4; i <= 6; i++ {
		table["a"] = []byte(fmt.Sprintf("v%d", i))
		if _, err := st.Commit(fs, table); err != nil {
			t.Fatal(err)
		}
		// After g5 the newest four are g2..g5, and g2 chains to g1 and g0.
		if i <= 5 && !fs.Exists("rcstate.g0.meta") {
			t.Fatalf("after g%d: prune deleted the anchor a retained delta depends on", i)
		}
	}
	for g := 0; g <= 2; g++ {
		if fs.Exists(fmt.Sprintf("rcstate.g%d.meta", g)) {
			t.Fatalf("g%d survived once no retained generation needs it", g)
		}
	}
	fresh := &StateStore{Base: "rcstate"}
	got, g, _, ok, err := fresh.Load(fs)
	if err != nil || !ok || g != 6 {
		t.Fatalf("Load: gen=%d ok=%v err=%v", g, ok, err)
	}
	sameRecords(t, got, table)
}

func corruptFile(t *testing.T, fs *pfs.System, name string) {
	t.Helper()
	b := make([]byte, 1)
	if err := fs.ReadAt(0, name, b, 9); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if err := fs.WriteAt(0, name, b, 9); err != nil {
		t.Fatal(err)
	}
}
