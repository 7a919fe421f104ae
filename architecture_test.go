package drms_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// archRules are the module's import rules, one row each: the import a
// rule restricts, whether test files are held to it, where the import may
// stand (a directory ends in "/"), and why. Each row has a planted case,
// testdata/architecture/<name>, a tree that breaks the rule in exactly one
// file beside files where the rule allows the import.
type archRule struct {
	name    string
	imp     string
	tests   bool
	allowed []string
	why     string
}

var archRules = []archRule{
	{"gob", "encoding/gob", false,
		[]string{"internal/seg/", "internal/pfs/snapshot.go", "cmd/drmsfsck/internal/legacy/"},
		"a record the system defines is an internal/frame walk, a function of its value; gob stays for " +
			"the segment's user variables, the pfs snapshot and drmsfsck's readers of gob-era records"},
	{"legacy", "drms/cmd/drmsfsck/internal/legacy", true, []string{"cmd/drmsfsck/"},
		"the gob-era readers are drmsfsck -repair's: no product binary links them"},
}

// archViolations lists every import under root that a rule forbids, as
// "<rule>: <file>". Directories named testdata or starting with a dot are
// not walked.
func archViolations(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		for _, r := range archRules {
			if !r.tests && strings.HasSuffix(rel, "_test.go") || slices.ContainsFunc(r.allowed, func(a string) bool {
				return rel == a || strings.HasSuffix(a, "/") && strings.HasPrefix(rel, a)
			}) {
				continue
			}
			for _, im := range f.Imports {
				if p, _ := strconv.Unquote(im.Path.Value); p == r.imp {
					out = append(out, r.name+": "+rel)
				}
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestArchitecture fails on an import a rule forbids anywhere in the
// module, and on a rule that no longer catches its planted case.
func TestArchitecture(t *testing.T) {
	for _, v := range archViolations(t, ".") {
		name, file, _ := strings.Cut(v, ": ")
		for _, r := range archRules {
			if r.name == name {
				t.Errorf("%s imports %s: %s", file, r.imp, r.why)
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
		if got := archViolations(t, filepath.Join("testdata", "architecture", r.name)); len(got) != 1 || !strings.HasPrefix(got[0], r.name+": ") {
			t.Errorf("planted case of rule %q: violations %v, want exactly one of it", r.name, got)
		}
	}
}
