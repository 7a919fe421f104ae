package drms_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// srcFile is one parsed Go file of a tree.
type srcFile struct {
	rel   string            // slash path from the tree's root
	test  bool              // a _test.go file
	ast   *ast.File         // parsed without object resolution
	pkgs  map[string]string // the file's name for each package it imports, to its path
	funcs []string          // the functions and methods it declares
	tree  *srcTree          // the tree it was parsed into
}

// srcTree is every Go file under a root, parsed once. Directories named
// testdata or starting with a dot are not walked.
type srcTree struct {
	fset  *token.FileSet
	files []*srcFile
}

func parseTree(root string) (*srcTree, error) {
	tr := &srcTree{fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(tr.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		sf := &srcFile{rel: filepath.ToSlash(rel), test: strings.HasSuffix(p, "_test.go"), ast: f, pkgs: map[string]string{}, tree: tr}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			sf.pkgs[name] = ip
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				sf.funcs = append(sf.funcs, fd.Name.Name)
			}
		}
		tr.files = append(tr.files, sf)
		return err
	})
	return tr, err
}

// moduleTree is the module's own tree, parsed once for every test of the
// package that reads source.
var moduleTree = sync.OnceValues(func() (*srcTree, error) { return parseTree(".") })

// has reports whether the tree holds p: a file, a directory ending in
// "/", or "<file>:<func>".
func (tr *srcTree) has(p string) bool {
	file, fn, _ := strings.Cut(p, ":")
	return slices.ContainsFunc(tr.files, func(f *srcFile) bool {
		if fn != "" {
			return f.rel == file && slices.Contains(f.funcs, fn)
		}
		return under(f.rel, p)
	})
}

// under reports whether rel is the file p, or lies in the directory p.
func under(rel, p string) bool {
	return rel == p || strings.HasSuffix(p, "/") && strings.HasPrefix(rel, p)
}

// pkgOf is the import path x names, if x is a package name of f.
func (f *srcFile) pkgOf(x ast.Expr) string {
	if id, ok := x.(*ast.Ident); ok {
		return f.pkgs[id.Name]
	}
	return ""
}

// A matcher reports whether node n of file f is a site a rule restricts.
type matcher func(f *srcFile, n ast.Node) bool

// archRule is one architecture rule, a row of archRules. A rule covers the
// paths in (the whole tree when empty; test files only if tests), except
// the paths in allow: a file, a directory ending in "/", or
// "<file>:<func>" for one function, its closures included. The sites it
// matches there must number exactly count: each is a violation when count
// is 0; otherwise a tree holding a covered file with another number of
// sites is one. Its planted case, testdata/architecture/<name>, is a tree
// that breaks the rule in exactly one file, beside files the rule allows.
type archRule struct {
	name  string
	in    []string
	allow []string
	tests bool
	count int
	match matcher
	why   string
}

// Import rows.

// imports matches an import of one of paths; a path ending in "/" stands
// for every package under it.
func imports(paths ...string) matcher {
	return func(_ *srcFile, n ast.Node) bool {
		im, ok := n.(*ast.ImportSpec)
		if !ok {
			return false
		}
		p, _ := strconv.Unquote(im.Path.Value)
		return slices.ContainsFunc(paths, func(q string) bool { return under(p, q) })
	}
}

// importsBut matches an import under path other than of except.
func importsBut(path, except string) matcher {
	return func(f *srcFile, n ast.Node) bool {
		return imports(path)(f, n) && !imports(except)(f, n)
	}
}

// layered matches an import of a package under drms/internal/ that table
// does not list for the importing file's directory.
func layered(table map[string][]string) matcher {
	return func(f *srcFile, n ast.Node) bool {
		im, ok := n.(*ast.ImportSpec)
		if !ok {
			return false
		}
		p, _ := strconv.Unquote(im.Path.Value)
		dep, ok := strings.CutPrefix(p, "drms/internal/")
		return ok && !slices.Contains(table[path.Dir(f.rel)], dep)
	}
}

// Call rows.

// calls matches pkg.name for one of names, called or not, pkg resolved
// through the file's imports. With pkg "" it matches a call of a plain
// function name, or x.name where x is not a package.
func calls(pkg string, names ...string) matcher {
	return func(f *srcFile, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			id, ok := n.Fun.(*ast.Ident)
			return ok && pkg == "" && slices.Contains(names, id.Name)
		case *ast.SelectorExpr:
			return slices.Contains(names, n.Sel.Name) && f.pkgOf(n.X) == pkg
		}
		return false
	}
}

// method is the method name a call selects, or "".
func method(n ast.Node) (*ast.SelectorExpr, string) {
	if c, ok := n.(*ast.CallExpr); ok {
		if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
			return sel, sel.Sel.Name
		}
	}
	return nil, ""
}

// assigns matches an assignment to a field named field.
func assigns(field string) matcher {
	return func(_ *srcFile, n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		return ok && a.Tok == token.ASSIGN && slices.ContainsFunc(a.Lhs, func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == field
		})
	}
}

// increments matches x.field++.
func increments(field string) matcher {
	return func(_ *srcFile, n ast.Node) bool {
		s, ok := n.(*ast.IncDecStmt)
		if !ok || s.Tok != token.INC {
			return false
		}
		sel, ok := ast.Unparen(s.X).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == field
	}
}

// gathersArray matches Array.Gather: a Gather call given a value of
// package rangeset (its order), which msg.Comm.Gather never is.
func gathersArray(f *srcFile, n ast.Node) bool {
	if _, m := method(n); m != "Gather" {
		return false
	}
	found := false
	for _, a := range n.(*ast.CallExpr).Args {
		ast.Inspect(a, func(x ast.Node) bool {
			if sel, ok := x.(*ast.SelectorExpr); ok && f.pkgOf(sel.X) == "drms/internal/rangeset" {
				found = true
			}
			return !found
		})
	}
	return found
}

// copiesBytes matches append([]byte(nil), …).
func copiesBytes(f *srcFile, n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok || len(c.Args) == 0 || !calls("", "append")(f, c) {
		return false
	}
	conv, ok := c.Args[0].(*ast.CallExpr)
	return ok && len(conv.Args) == 1 && sliceOf("byte")(f, conv.Fun) && idents("nil")(f, conv.Args[0])
}

// intersectEqual matches x.Intersect(…).Equal(…).
func intersectEqual(_ *srcFile, n ast.Node) bool {
	sel, m := method(n)
	if m != "Equal" {
		return false
	}
	_, inner := method(sel.X)
	return inner == "Intersect"
}

// Declaration rows.

// idents matches every identifier named one of names, declared or used.
func idents(names ...string) matcher {
	return func(_ *srcFile, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && slices.Contains(names, id.Name)
	}
}

// sliceOf matches a slice type of one of elems: a type name, or "*" and
// one.
func sliceOf(elems ...string) matcher {
	return func(_ *srcFile, n ast.Node) bool {
		at, ok := n.(*ast.ArrayType)
		if !ok || at.Len != nil {
			return false
		}
		e, star := at.Elt, ""
		if s, ok := e.(*ast.StarExpr); ok {
			e, star = s.X, "*"
		}
		id, ok := e.(*ast.Ident)
		return ok && slices.Contains(elems, star+id.Name)
	}
}

// Package rows.

// unfuzzed matches the declaration of a decoder — a non-test function or
// method named decode*, Decode*, Parse* or GobDecode — that no Fuzz target
// of its package reaches (fuzzReach).
func unfuzzed(f *srcFile, n ast.Node) bool {
	fd, ok := n.(*ast.FuncDecl)
	if !ok || f.test || !slices.ContainsFunc([]string{"decode", "Decode", "Parse", "GobDecode"},
		func(p string) bool { return strings.HasPrefix(fd.Name.Name, p) }) {
		return false
	}
	return !f.tree.fuzzReach(path.Dir(f.rel))[fd.Name.Name]
}

// fuzzReach is every name the Fuzz targets declared in dir reach: the
// identifiers of their bodies, and of the bodies of the functions and
// methods of dir, test helpers included, that those name, transitively.
func (tr *srcTree) fuzzReach(dir string) map[string]bool {
	decls := map[string][]*ast.FuncDecl{}
	var next []string
	for _, f := range tr.files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && path.Dir(f.rel) == dir {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
				if f.test && strings.HasPrefix(fd.Name.Name, "Fuzz") {
					next = append(next, fd.Name.Name)
				}
			}
		}
	}
	reached := map[string]bool{}
	for len(next) > 0 {
		name := next[len(next)-1]
		next = next[:len(next)-1]
		for _, fd := range decls[name] {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !reached[id.Name] {
					reached[id.Name] = true
					next = append(next, id.Name)
				}
				return true
			})
		}
	}
	return reached
}

// anyOf matches what any of ms matches.
func anyOf(ms ...matcher) matcher {
	return func(f *srcFile, n ast.Node) bool {
		return slices.ContainsFunc(ms, func(m matcher) bool { return m(f, n) })
	}
}

// layers is DESIGN's layering, msg → array/stream → ckpt → drms → coord,
// as the packages under drms/internal/ each package may import. A
// directory it does not list may import none of them; obs, codec and xsum
// are held stdlib-only by rows of their own.
var layers = map[string][]string{
	"internal/rangeset":  nil,
	"internal/pfs":       nil,
	"internal/leakcheck": nil,
	"internal/seg":       {"frame"},
	"internal/crc":       nil,
	"internal/frame":     {"rangeset"},
	"internal/dist":      {"rangeset"},
	"internal/spec":      {"dist", "rangeset"},
	"internal/sim":       {"pfs"},
	"internal/msg":       {"obs"},
	"internal/array":     {"dist", "msg", "obs", "rangeset", "xsum"},
	"internal/stream":    {"array", "crc", "dist", "msg", "obs", "pfs", "rangeset"},
	"internal/steer":     {"array", "frame", "pfs", "rangeset", "stream"},
	"internal/ckpt":      {"array", "codec", "crc", "frame", "msg", "obs", "pfs", "rangeset", "seg", "stream"},
	"internal/drms":      {"array", "ckpt", "dist", "frame", "msg", "obs", "pfs", "seg", "spec", "stream"},
	"internal/apps":      {"array", "dist", "drms", "rangeset", "seg", "xsum"},
	// apps is the one exception to the layering, until the control plane
	// is split from the application launcher (ROADMAP item 7).
	"internal/coord":               {"apps", "ckpt", "drms", "frame", "msg", "obs", "pfs", "stream"},
	"internal/bench":               {"apps", "ckpt", "dist", "drms", "pfs", "rangeset", "sim", "stream"},
	"cmd/drmsfsck/internal/legacy": {"ckpt", "codec", "coord", "crc", "frame", "pfs", "rangeset", "seg", "stream"},
}

var archRules = []archRule{
	// Import rows.
	{name: "layers", in: []string{"internal/", "cmd/drmsfsck/internal/"},
		allow: []string{"internal/obs/", "internal/codec/", "internal/xsum/"}, match: layered(layers),
		why: "an import against the layering (msg → array/stream → ckpt → drms → coord): the layers table lists what each package may import"},
	{name: "obs", in: []string{"internal/obs/"}, tests: true, match: importsBut("drms/", leakcheckPkg),
		why: "internal/obs must stay stdlib-only (every layer imports it; its tests import only internal/leakcheck)"},
	{name: "codec", in: []string{"internal/codec/"}, tests: true, match: importsBut("drms/", leakcheckPkg),
		why: "internal/codec must stay stdlib-only (piece codecs decode anywhere, including fsck; its tests import only internal/leakcheck)"},
	{name: "xsum", in: []string{"internal/xsum/"}, tests: true, match: importsBut("drms/", leakcheckPkg),
		why: "internal/xsum must stay stdlib-only (a leaf: the exact sum every layer may fold into; its tests import only internal/leakcheck)"},
	{name: "leakcheck", match: imports(leakcheckPkg),
		why: "internal/leakcheck outside a test (it ends the process: only a test binary's TestMain calls it)"},
	{name: "unsafe", in: []string{"internal/"}, allow: []string{"internal/array/codec.go"}, tests: true, match: imports("unsafe"),
		why: "a second unsafe import under internal/ (the one byte view of a slice is rawBytes in internal/array/codec.go)"},
	{name: "crc64", in: []string{"cmd/", "internal/"}, allow: []string{"internal/crc/crc.go"}, match: imports("hash/crc64"),
		why: "a second CRC-64 (internal/crc is the one implementation: its sums are hash/crc64's, its bulk path the carry-less-multiply kernel)"},
	{name: "bench-json", in: []string{"internal/bench/", "cmd/drmsbench/"}, match: imports("encoding/json"),
		why: "a second benchmark harness (benchmark/ writes the one result schema; internal/bench and cmd/drmsbench regenerate " +
			"the paper's tables, and TestModeledClaims holds the modeled claims)"},
	{name: "gob", allow: []string{"internal/seg/vars.go", "internal/pfs/snapshot.go", "cmd/drmsfsck/internal/legacy/"}, match: imports("encoding/gob"),
		why: "a record the system defines is an internal/frame walk, a function of its value; gob stays for " +
			"the values of the segment's user variables (Segment.Encode and Decode, internal/seg/vars.go), the pfs snapshot and drmsfsck's " +
			"readers of gob-era records"},
	{name: "legacy", allow: []string{"cmd/drmsfsck/"}, tests: true, match: imports("drms/cmd/drmsfsck/internal/legacy"),
		why: "the gob-era readers are drmsfsck -repair's: no product binary links them"},

	// Call rows.
	{name: "panic", in: []string{"internal/msg/", "internal/stream/", "internal/ckpt/"}, match: calls("", "panic"),
		why: "panic() in fallible runtime code (must return errors: a panic takes down survivors that are supposed to " +
			"unwind with ErrRevoked and restart; tests may panic inside SPMD bodies as their assertion mechanism)"},
	{name: "gather", in: []string{"cmd/", "internal/"}, match: gathersArray,
		why: "Array.Gather in product code (it moves the whole array to one rank: tests only; a checksum is " +
			"Array.Checksum, which moves no element)"},
	{name: "rc-internals", in: []string{"cmd/", "internal/"},
		allow: []string{"internal/coord/", "internal/drms/", "internal/msg/", "internal/bench/"},
		match: calls("", "EnableCheckpoint", "RequestStop", "Kill"),
		why: "RC internals reached around outside internal/coord (use the versioned API — " +
			"OpenApp/CheckpointApp/StopApp/KillApp — or the control protocol)"},
	{name: "transition", in: []string{"internal/coord/"}, allow: []string{"internal/coord/transition.go"},
		match: anyOf(assigns("Status"), increments("Version"), calls("", "EnableCheckpoint", "RequestStop", "Kill")),
		why: "application state changed outside the coordinator's transition function (status, version " +
			"and the control actions on an incarnation belong to internal/coord/transition.go)"},
	{name: "transition-status", in: []string{"internal/coord/transition.go"}, count: 1, match: assigns("Status"),
		why: "internal/coord/transition.go must hold exactly one .Status assignment"},
	{name: "transition-version", in: []string{"internal/coord/transition.go"}, count: 1, match: increments("Version"),
		why: "internal/coord/transition.go must hold exactly one .Version++"},
	{name: "flush", in: []string{"internal/coord/"},
		allow: []string{"internal/coord/transition.go", "internal/coord/store.go", "internal/coord/lease.go"}, match: calls("", "flushState"),
		why: "a synchronous state flush outside the transition function, the persister and SyncState " +
			"(persist-then-announce is the transition function's job)"},
	{name: "flush-lease", in: []string{"internal/coord/lease.go"}, count: 1, match: calls("", "flushState"),
		why: "internal/coord/lease.go holds RecoverRC's one final flush, and no other"},
	{name: "stream-read", in: []string{"internal/ckpt/"}, count: 1, match: calls("", "StreamRead"),
		why: "one StreamRead call site in internal/ckpt (every restart shape is a plan of the one restore engine, " +
			"restoreDRMS — a second reader must not creep back)"},
	{name: "stream-write", in: []string{"internal/ckpt/"}, count: 1, match: calls("", "StreamWrite"),
		why: "one StreamWrite call site in internal/ckpt (every DRMS checkpoint is an anchor or a delta of the one " +
			"encoder, WriteDRMSChained — a second writer must not creep back)"},
	{name: "drms-format", in: []string{"internal/drms/"}, match: anyOf(calls("", "chained"), calls("drms/internal/ckpt", "WriteDRMS")),
		why: "internal/drms selects a checkpoint format again (a configuration chooses codec, chain and " +
			"tier through ckpt.ChainOptions, never the format)"},
	{name: "stream-array", in: []string{"internal/stream/"}, match: anyOf(calls("drms/internal/array", "New", "Assign"), calls("", "Reset")),
		why: "internal/stream holds a typed array of its own again (a round's pieces live in their I/O buffers, in " +
			"wire form: array.PackPieces/UnpackPieces — the auxiliary array must not creep back)"},
	{name: "transport-copy", in: []string{"internal/msg/local.go", "internal/msg/tcp.go"}, match: anyOf(calls("bytes", "Clone"), copiesBytes),
		why: "a payload copy in a transport (Send takes ownership of its payload: Comm.send copies for " +
			"the operations that give the caller its buffer back, AlltoallSparse hands off)"},
	{name: "handoff", in: []string{"internal/msg/"}, allow: []string{"internal/msg/msg.go:AlltoallSparse", "internal/msg/msg.go:send"},
		match: calls("", "handOff"),
		why: "a hand-off outside AlltoallSparse (every other operation promises MPI copy semantics: its caller may " +
			"reuse the buffer, so it must go through Comm.send, which hands off a copy)"},
	{name: "epoch-transport", in: []string{"internal/msg/"},
		allow: []string{"internal/msg/msg.go:NewRunner", "internal/msg/shrink.go:install"},
		match: calls("", "NewLocalTransport", "NewTCPTransport"),
		why: "a second live epoch in the runner (it keeps only the current transport: NewRunner opens the " +
			"launch one, Runner.install every later one, and a retired transport is dropped)"},
	{name: "varint", allow: []string{"internal/frame/"},
		match: calls("encoding/binary", "Uvarint", "Varint", "AppendUvarint", "AppendVarint", "PutUvarint", "PutVarint"),
		why: "a hand-rolled varint codec (internal/frame is the one codec of every record the system defines: " +
			"one walk that encodes and decodes, accepting only the encoding of what it decodes to)"},
	{name: "fixed-width", in: []string{"internal/ckpt/"}, allow: []string{"internal/ckpt/ckpt.go"}, match: imports("encoding/binary"),
		why: "a fixed-width record in internal/ckpt (its records — the metadata, the piece tables and the SOP rounds that " +
			"gather them — are internal/frame walks; only ckpt.go's file layouts, the segment file's length header and " +
			"the SPMD record, are fixed-width)"},
	{name: "intersect-equal", match: intersectEqual,
		why: "a subset test built as intersect-then-compare (it walks every element and allocates the " +
			"intersection; x.Within(y) answers x ⊆ y in O(1) on regular axes, one pass otherwise)"},

	// Declaration rows.
	{name: "epoch-slice", in: []string{"internal/msg/"}, match: sliceOf("Transport", "*TCPTransport"),
		why: "a second live epoch in the runner (it keeps only the current transport; a list of transports " +
			"is the retired epochs kept alive)"},
	{name: "state-chain", in: []string{"internal/ckpt/state.go"}, match: idents("ChainLen", "Deps", "loadChain"),
		why: "the control-plane store walks or writes chains again (every StateStore generation is a " +
			"self-contained anchor; only drmsfsck -repair resolves an older delta chain)"},
	// Package rows.
	{name: "fuzzed", in: []string{"cmd/", "internal/"},
		allow: []string{
			// Every record codec decodes through frame.Decode, so the record
			// fuzzers (FuzzReadMeta, FuzzStateImage, FuzzLoadTierFile,
			// FuzzDecodeRecord, FuzzSteerHeader, FuzzDecodeGenHeader,
			// FuzzSegmentDecode, FuzzDecodeV3, …) cover it.
			"internal/frame/frame.go:Decode",
			// Fixed-width element decoders: every byte string of a whole
			// number of elements is an array of elements, so no input is
			// malformed; the codec round-trip tests hold them.
			"internal/array/codec.go:DecodeElems", "internal/array/codec.go:DecodeElemsInto",
			"internal/array/codec.go:decodeRun",
			// The fetcher's piece decoders run codec.Decode (FuzzDecode,
			// internal/codec) on stored bytes whose CRC the metadata holds,
			// into a buffer of the location's logical size.
			"internal/ckpt/chain.go:decodeInto", "internal/ckpt/chain.go:decoded",
		},
		match: unfuzzed,
		why: "a decoder no fuzzer reaches (a function or method named decode*, Decode*, Parse* or GobDecode reads " +
			"bytes it did not write: a Fuzz target of its package must call it, directly or through the package's " +
			"functions; allow names a decoder another package's fuzzers cover, or one no input can make malformed)"},

	{name: "incremental", tests: true, match: idents("IncrementalCheckpoint", "WriteDRMSIncremental", "SkipPiece"),
		why: "the in-place incremental writer is back (chained deltas, Config.AnchorEvery > 1, " +
			"are the one implementation of the paper's §6 optimisation)"},
}

// violations lists what r finds in tr: each site for a rule without count,
// else one entry when tr holds a file r covers and the sites number other
// than count.
func (r archRule) violations(tr *srcTree) []string {
	var sites []string
	covered := false
	for _, f := range tr.files {
		if f.test && !r.tests || len(r.in) > 0 && !slices.ContainsFunc(r.in, func(p string) bool { return under(f.rel, p) }) {
			continue
		}
		covered = true
		for _, d := range f.ast.Decls {
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			if slices.ContainsFunc(r.allow, func(p string) bool {
				file, allowed, ok := strings.Cut(p, ":")
				return ok && f.rel == file && fn == allowed || !ok && under(f.rel, p)
			}) {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil && r.match(f, n) {
					sites = append(sites, tr.fset.Position(n.Pos()).String())
				}
				return true
			})
		}
	}
	switch {
	case r.count == 0:
		return sites
	case covered && len(sites) != r.count:
		return []string{fmt.Sprintf("%d sites in %s, want %d: %v", len(sites), strings.Join(r.in, " "), r.count, sites)}
	}
	return nil
}

// TestArchitecture fails on a site a rule forbids anywhere in the module,
// on a rule naming a path the module does not hold, and on a rule that
// does not catch its planted case alone.
func TestArchitecture(t *testing.T) {
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range archRules {
		for _, v := range r.violations(tr) {
			t.Errorf("%s: %s [%s]", v, r.why, r.name)
		}
		for _, p := range append(slices.Clone(r.in), r.allow...) {
			if !tr.has(p) {
				t.Errorf("rule %s names %s, which the module does not hold", r.name, p)
			}
		}
	}
	for dir, deps := range layers {
		for _, p := range append([]string{dir + "/"}, deps...) {
			if !strings.HasSuffix(p, "/") {
				p = "internal/" + p + "/"
			}
			if !tr.has(p) {
				t.Errorf("layers names %s, which the module does not hold", p)
			}
		}
	}

	planted, err := os.ReadDir(filepath.Join("testdata", "architecture"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range planted {
		if d.IsDir() && !slices.ContainsFunc(archRules, func(r archRule) bool { return r.name == d.Name() }) {
			t.Errorf("planted case %s has no rule", d.Name())
		}
	}
	for _, r := range archRules {
		pt, err := parseTree(filepath.Join("testdata", "architecture", r.name))
		if err != nil {
			t.Errorf("planted case of rule %s: %v", r.name, err)
			continue
		}
		var got []string
		for _, q := range archRules {
			for _, v := range q.violations(pt) {
				got = append(got, q.name+": "+v)
			}
		}
		if len(got) != 1 || !strings.HasPrefix(got[0], r.name+": ") {
			t.Errorf("planted case of rule %s: violations %q, want exactly one of it", r.name, got)
		}
	}
}

// leakcheckPkg fails a test binary whose tests leak a goroutine.
const leakcheckPkg = "drms/internal/leakcheck"

// TestEveryPackageChecksForLeaks: every directory of the module with tests
// has a TestMain that calls leakcheck.Main, so no package's tests leave a
// goroutine of the module running unnoticed. benchmark/ is the benchmark's
// contract, changed only with it.
func TestEveryPackageChecksForLeaks(t *testing.T) {
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]bool{}
	for _, f := range tr.files {
		dir := path.Dir(f.rel)
		if !f.test || under(f.rel, "benchmark/") {
			continue
		}
		checked[dir] = checked[dir] || slices.ContainsFunc(f.ast.Decls, func(d ast.Decl) bool {
			fd, ok := d.(*ast.FuncDecl)
			found := false
			if ok && fd.Name.Name == "TestMain" && fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					found = found || calls(leakcheckPkg, "Main")(f, n)
					return !found
				})
			}
			return found
		})
	}
	for dir, ok := range checked {
		if !ok {
			t.Errorf("%s: no TestMain calls leakcheck.Main", dir)
		}
	}
}
