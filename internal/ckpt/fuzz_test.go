package ckpt

import (
	"strings"
	"testing"

	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/stream"
)

// metaBytes returns the stored metadata record of prefix.
func metaBytes(t testing.TB, fs *pfs.System, prefix string) []byte {
	t.Helper()
	sz, err := fs.Size(metaFile(prefix))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, sz)
	if err := fs.ReadAt(0, metaFile(prefix), b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzReadMeta stores arbitrary bytes as the metadata x.meta beside the
// payload files of golden_v2.pfs, renamed under x, on a fresh file system,
// and reads and verifies the checkpoint. A result or an error are the only
// outcomes: no metadata record may panic a reader. Seeded with the
// golden's own record, a StateStore generation's and an SPMD
// checkpoint's.
func FuzzReadMeta(f *testing.F) {
	golden := pfs.NewSystem(pfs.DefaultConfig())
	if err := golden.LoadFile("testdata/golden_v2.pfs"); err != nil {
		f.Fatal(err)
	}
	payload := map[string][]byte{}
	for _, name := range golden.List("golden.") {
		if name == metaFile("golden") {
			continue
		}
		sz, _ := golden.Size(name)
		b := make([]byte, sz)
		if err := golden.ReadAt(0, name, b, 0); err != nil {
			f.Fatal(err)
		}
		payload["x"+strings.TrimPrefix(name, "golden")] = b
	}
	f.Add(metaBytes(f, golden, "golden"))

	seeds := testFS()
	st := &StateStore{Base: "rcstate"}
	gen, err := st.Commit(seeds, recs("a", "v0", "b", "v1"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(metaBytes(f, seeds, Rotation{Base: st.Base}.generation(gen)))
	mustRun(f, 2, func(c *msg.Comm) {
		sg, refs, u, _ := buildApp(c, []int{2, 1})
		u.Fill(coordVal)
		if _, err := WriteSPMD(seeds, "sp", c, sg, refs, stream.Options{}); err != nil {
			panic(err)
		}
	})
	f.Add(metaBytes(f, seeds, "sp"))

	f.Fuzz(func(t *testing.T, meta []byte) {
		fs := pfs.NewSystem(pfs.DefaultConfig())
		for name, b := range payload {
			if err := fs.WriteAt(0, name, b, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.WriteAt(0, metaFile("x"), meta, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMeta(fs, "x", 0); err == nil {
			_ = Verify(fs, "x", 0)
		}
	})
}
