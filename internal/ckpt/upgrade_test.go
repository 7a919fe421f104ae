package ckpt

import (
	"errors"
	"slices"
	"testing"

	"drms/internal/pfs"
)

// v1ArrayFiles lists the version 1 stream files of the stored rotation's
// generation g.
func v1ArrayFiles(g string) []string {
	return []string{arrFile(g, "ids"), arrFile(g, "u")}
}

// TestUpgradeIdempotent: the first Upgrade turns each stored v1
// generation into a verified version 2 one that restores bit-exact and
// drops the v1 stream files; the second finds nothing to do.
func TestUpgradeIdempotent(t *testing.T) {
	fs := testFS()
	loadUpgradedV1Rotation(t, fs)
	for step, g := range []string{"job.g0", "job.g1"} {
		for _, f := range v1ArrayFiles(g) {
			if fs.Exists(f) {
				t.Fatalf("%s survived the upgrade", f)
			}
		}
		if up, err := Upgrade(fs, g, 0); up || err != nil {
			t.Fatalf("second upgrade of %s: upgraded %v, %v", g, up, err)
		}
		if err := Verify(fs, g, 0); err != nil {
			t.Fatal(err)
		}
		checkChainRestore(t, fs, g, step, 3, []int{3, 1}, 128)
	}
}

// TestUpgradeResumesAfterCrashBeforeCommit leaves the storage as a crash
// between the copies and the meta commit would: a piece file half
// copied, a meta temporary half written, the v1 meta still in charge. A
// rerun finishes the upgrade.
func TestUpgradeResumesAfterCrashBeforeCommit(t *testing.T) {
	fs := testFS()
	loadV1Rotation(t, fs)
	const g = "job.g1"
	if err := copyFile(fs, 0, arrFile(g, "u"), pieceFile(g, "u", 0), 100); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt(0, metaFile(g)+".tmp", []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMeta(fs, g, 0); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("after the crash: %v, want the legacy meta in charge", err)
	}
	if up, err := Upgrade(fs, g, 0); !up || err != nil {
		t.Fatalf("rerun: upgraded %v, %v", up, err)
	}
	checkChainRestore(t, fs, g, 1, 4, []int{2, 2}, 300)
}

// TestUpgradeRefusesCorruptArray: a damaged v1 stream file fails the
// upgrade's verification, and the v1 files stay for diagnosis.
func TestUpgradeRefusesCorruptArray(t *testing.T) {
	fs := testFS()
	loadV1Rotation(t, fs)
	const g = "job.g0"
	if err := fs.WriteAt(0, arrFile(g, "u"), []byte{0xff, 0xfe}, 200); err != nil {
		t.Fatal(err)
	}
	up, err := Upgrade(fs, g, 0)
	var ce *CorruptError
	if up || !errors.As(err, &ce) || ce.Piece < 0 {
		t.Fatalf("upgrade of a corrupt generation: upgraded %v, %v", up, err)
	}
	for _, f := range v1ArrayFiles(g) {
		if !fs.Exists(f) {
			t.Fatalf("%s removed by a failed upgrade", f)
		}
	}
}

// TestUpgradeNeededNotQuarantined: verified resolution over a rotation
// nobody upgraded says so, and touches no file.
func TestUpgradeNeededNotQuarantined(t *testing.T) {
	fs := testFS()
	loadV1Rotation(t, fs)
	before := fs.List("")
	chosen, quarantined, ok, err := ResolveVerified(fs, "job")
	if ok || !errors.Is(err, ErrLegacyFormat) || len(quarantined) != 0 {
		t.Fatalf("resolve = %q ok %v quarantined %v err %v", chosen, ok, quarantined, err)
	}
	if after := fs.List(""); !slices.Equal(before, after) {
		t.Fatalf("files changed: %v -> %v", before, after)
	}
}

// TestReadMetaRejectsMalformedShape: metadata that decodes but whose
// tables are shorter than the record promises is a *CorruptError at
// ReadMeta, so verified resolution — the supervisor's restart path —
// fails cleanly where the verifier used to index past them and panic.
func TestReadMetaRejectsMalformedShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Meta
	}{
		{"drms-no-segment", Meta{Version: chainVersion, Mode: ModeDRMS, Tasks: 2}},
		{"spmd-short-segments", Meta{Version: version, Mode: ModeSPMD, Tasks: 3,
			SegBytes: []int64{8}, SegCRC: []uint64{0}}},
		{"drms-unlocated-array", Meta{Version: chainVersion, Mode: ModeDRMS, Tasks: 1,
			SegBytes: []int64{8}, SegCRC: []uint64{0}, Arrays: []ArrayMeta{{Name: "u", Bytes: 8}}}},
		{"extra-plan-sigs", Meta{Version: version, Mode: ModeDRMS, Tasks: 1,
			SegBytes: []int64{8}, SegCRC: []uint64{0}, PlanSigs: []string{"x"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := pfs.NewSystem(pfs.DefaultConfig())
			if err := writeMeta(fs, "x", 0, tc.m); err != nil {
				t.Fatal(err)
			}
			var ce *CorruptError
			if _, _, ok, err := ResolveVerified(fs, "x"); ok || !errors.As(err, &ce) {
				t.Fatalf("ResolveVerified ok %v err %v", ok, err)
			}
			if _, err := ReadMeta(fs, "x", 0); !errors.As(err, &ce) {
				t.Fatalf("ReadMeta = %v, want *CorruptError", err)
			}
		})
	}
}
