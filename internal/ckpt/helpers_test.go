package ckpt

import (
	"errors"
	"testing"

	"drms/internal/msg"
	"drms/internal/pfs"
)

// mustRun executes the SPMD body, converting assertion panics inside it
// (and any task error) into test failures.
func mustRun(t testing.TB, n int, f func(c *msg.Comm)) {
	t.Helper()
	if err := msg.Run(n, func(c *msg.Comm) error { f(c); return nil }); err != nil {
		t.Fatal(err)
	}
}

// v1RotationPath is a stored rotation in metadata v1 — one raw stream
// file per array — which no code in this tree can write any more: job.g0
// and job.g1 hold chainFill(0) and chainFill(1) of buildApp on 4 tasks
// (grid 2×2, PieceBytes 300, "iter" registered), written once by the v1
// encoder of commit 2aac552. Every reader here refuses it; drmsfsck
// -repair upgrades it to v1UpgradedPath, which its tests check byte for
// byte, so this package's tests read the upgraded rotation from there.
const (
	v1RotationPath = "testdata/v1_rotation.pfs"
	v1UpgradedPath = "testdata/v1_rotation_upgraded.pfs"
)

// loadV1Rotation replaces fs's contents with the stored v1 rotation,
// not yet upgraded: every reader refuses it with ErrLegacyFormat.
func loadV1Rotation(t testing.TB, fs *pfs.System) {
	t.Helper()
	if err := fs.LoadFile(v1RotationPath); err != nil {
		t.Fatalf("stored v1 rotation missing: %v", err)
	}
	for _, g := range []string{"job.g0", "job.g1"} {
		if _, err := ReadMeta(fs, g, 0); !errors.Is(err, ErrLegacyFormat) {
			t.Fatalf("%s of %s is not a legacy checkpoint: %v", g, v1RotationPath, err)
		}
	}
}

// loadUpgradedV1Rotation replaces fs's contents with the v1 rotation as
// drmsfsck -repair upgrades it: both generations version 3, each array's
// stream one task-0 piece file.
func loadUpgradedV1Rotation(t testing.TB, fs *pfs.System) {
	t.Helper()
	if err := fs.LoadFile(v1UpgradedPath); err != nil {
		t.Fatalf("upgraded v1 rotation missing: %v", err)
	}
}

// upgradeStored does to generation g of the stored v1 rotation in fs what
// drmsfsck -repair does: g's files become those of the upgraded rotation.
func upgradeStored(t testing.TB, fs *pfs.System, g string) {
	t.Helper()
	up := pfs.NewSystem(pfs.DefaultConfig())
	loadUpgradedV1Rotation(t, up)
	for _, name := range fs.List(g + ".") {
		fs.Remove(name)
	}
	for _, name := range up.List(g + ".") {
		fs.Create(name)
		if err := fs.WriteAt(0, name, fileBytes(t, up, name), 0); err != nil {
			t.Fatal(err)
		}
	}
}

// storedAt locates, from the committed metadata, where byte off of an
// array's stream is stored: the piece file of the location covering it.
// A byte test helpers damage must be one a reader will read —
// pfs.WriteAt creates a missing file, so a wrong guess at the name
// corrupts nothing and fails no test.
func storedAt(t testing.TB, fs *pfs.System, prefix, arr string, off int64) (file string, fileOff int64) {
	t.Helper()
	m, err := ReadMeta(fs, prefix, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, gen := genBase(prefix)
	for i, am := range m.Arrays {
		if am.Name != arr {
			continue
		}
		for _, l := range m.PieceLocs[i] {
			if l.Off <= off && off < l.Off+l.Bytes {
				file, fileOff = locPieceFile(base, prefix, gen, arr, l), l.FileOff+min(off-l.Off, l.FileBytes-1)
			}
		}
	}
	if sz, err := fs.Size(file); err != nil || fileOff >= sz {
		t.Fatalf("stream byte %d of %s array %q is not stored at %s+%d (size %d, err %v)", off, prefix, arr, file, fileOff, sz, err)
	}
	return file, fileOff
}

// flipStored inverts n stored bytes of the array's payload starting
// where stream byte off lives, and returns the damaged file.
func flipStored(t testing.TB, fs *pfs.System, prefix, arr string, off int64, n int) string {
	t.Helper()
	file, fileOff := storedAt(t, fs, prefix, arr, off)
	sz, _ := fs.Size(file)
	b := make([]byte, min(int64(n), sz-fileOff))
	if err := fs.ReadAt(0, file, b, fileOff); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] ^= 0xff
	}
	if err := fs.WriteAt(0, file, b, fileOff); err != nil {
		t.Fatal(err)
	}
	return file
}

// truncateStored replaces the file holding the array's first stream byte
// with a three-byte stub, and returns it.
func truncateStored(t testing.TB, fs *pfs.System, prefix, arr string) string {
	t.Helper()
	file, _ := storedAt(t, fs, prefix, arr, 0)
	fs.Create(file)
	if err := fs.WriteAt(0, file, []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	return file
}
