package drms_test

import (
	"go/ast"
	"path"
	"sort"
	"strings"
	"testing"
)

// kept lists the exported identifiers under internal/ that stay although
// only tests name them, keyed "<package dir>.<Receiver>.<Name>" or
// "<package dir>.<Name>", with the reason.
var kept = map[string]string{
	// The paper's programming interface — Table 2's calls as DESIGN's
	// internal/drms row spells them, drms_distribute and drms_adjust,
	// §3.2's sequential channel — and the NAS ports Table 1 measures.
	"drms.Task.ReconfigResize": "Table 2 call listed in DESIGN's internal/drms row",
	"array.Array.Redistribute": "drms_distribute",
	"dist.Distribution.Adjust": "drms_adjust",
	"stream.WriteTo":           "§3.2's sequential channel (DESIGN's Sequential-channel streaming row)",
	"stream.ReadFrom":          "§3.2's sequential channel (DESIGN's Sequential-channel streaming row)",
	"apps.Instance.Residuals":  "the NAS ports' verification norm; Table 1 counts kernel.go's lines",

	// Surfaces other packages' tests drive: a _test.go file cannot export
	// across packages.
	"msg.FaultTransport.Arm": "the fault plane's on-demand kill, armed by the stream, drms and coord tests",
	"msg.NewChaosPlan":       "the seeded kill schedule of the msg and coord chaos soaks",
	"msg.ChaosPlan.Kills":    "the chaos soaks' kill count",
	"drms.Handle.TaskSpawns": "the drms and coord tests' proof that survivors' goroutines persist",
	"rangeset.Slice.Coord":   "inverse of Slice.Offset: the element-wise oracle of five packages' tests",
	"sim.Model.DESReplay":    "the discrete-event cross-check of the analytic model, run by the sim and bench tests",
	"coord.RC.KillApp":       "the versioned API's entry for the transition table's kill-requested row",
	"leakcheck.Main":         "every test binary's TestMain (TestEveryPackageChecksForLeaks): only tests may call it",
}

// viaInterface names methods the standard library calls through an
// interface (container/heap, sort), which no identifier in the module
// needs to name.
var viaInterface = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoUnreferencedExports fails on an exported function, method,
// type, constant or variable declared under internal/ whose name no
// non-test Go file of the module mentions (cmd/, examples/ and
// benchmark/ included), unless kept or viaInterface exempts it. The scan
// is by name, not by type: a reference to any identifier of the same
// name counts.
func TestNoUnreferencedExports(t *testing.T) {
	type decl struct {
		key, pos string
		method   bool
	}
	var decls []decl
	refs := map[string]int{}
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tr.files {
		if f.test {
			continue
		}
		own := map[*ast.Ident]bool{}
		if strings.HasPrefix(f.rel, "internal/") {
			pkg := path.Base(path.Dir(f.rel))
			add := func(id *ast.Ident, recv string) {
				if !id.IsExported() {
					return
				}
				own[id] = true
				decls = append(decls, decl{pkg + "." + recv + id.Name, tr.fset.Position(id.Pos()).String(), recv != ""})
			}
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					recv := ""
					if d.Recv != nil {
						recv = recvName(d.Recv.List[0].Type) + "."
					}
					add(d.Name, recv)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, "")
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, "")
							}
						}
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				refs[id.Name]++
			}
			return true
		})
	}
	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if refs[name] == 0 && kept[d.key] == "" && !(d.method && viaInterface[name]) {
			unused = append(unused, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but named by no non-test file: %s; delete it, move it into a _test.go file, or keep it in kept with a reason", u)
	}
	for k := range kept {
		if !declared[k] {
			t.Errorf("kept names %s, which is not an exported identifier under internal/", k)
		}
	}
}

// recvName is the receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
