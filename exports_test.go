package severifast

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportExemptions are the exported names under internal/ that may go
// without a non-test caller, each with its reason. Only two kinds belong
// here: the PSP/RMP command edge that ROADMAP item 4(c) checks against a
// reference state machine, and a test hook another package's tests need.
// An entry that is no longer exported, or that has gained a non-test
// caller, fails the test, so the table only shrinks.
var exportExemptions = map[string]string{
	// The PSP/RMP command edge ROADMAP item 4(c) drives against its
	// reference state machine; that item keeps or deletes the group.
	"psp.GuestContext.LaunchUpdateVMSA": "4(c) edge: LAUNCH_UPDATE_VMSA",
	"psp.GuestContext.Decommission":     "4(c) edge: DECOMMISSION, guest teardown",
	"rmp.Table.Lookup":                  "4(c) edge: the per-page state the model compares",
	"rmp.Table.Assign":                  "4(c) edge: assign one page",
	"rmp.Table.AssignRange":             "4(c) edge: assign a range",
	"rmp.Table.CheckGuestAccess":        "4(c) edge: guest read",
	"rmp.Table.CheckHostWrite":          "4(c) edge: host write",
	"rmp.Table.Remap":                   "4(c) edge: remap clears the validated bit",
	"rmp.Table.Reclaim":                 "4(c) edge: reclaim on teardown",
	"rmp.Table.AssignedPages":           "4(c) edge: pages a teardown must reclaim",

	// Test hooks other packages' tests need.
	"artifact.ResetForTest":                 "internal/verifier tests start from an empty intern table",
	"costmodel.Unit":                        "unit-cost model for exact arithmetic in the attest, kbs, kvm and psp tests",
	"hostwork.SetWorkers":                   "internal/guestmem tests pin the pool width",
	"psp.PSP.CertChain":                     "internal/attest and internal/kbs tests present a platform's chain",
	"psp.PSP.AMDRootKey":                    "internal/attest tests pin a platform's root",
	"guestmem.Memory.HostRestoreCiphertext": "§7 evidence: snapshot's cross-key test replays captured ciphertext",
}

// stdInterfaceMethods are called from the standard library through an
// interface, so no selector in this repository need name them.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Is": true, "Unwrap": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// exportedDecl is one exported package-level name or method declared in
// a non-test file under internal/.
type exportedDecl struct {
	key        string // "psp.Decommission", or "psp.GuestContext.Method"
	pkg, name  string // import path and identifier
	method     bool
	start, end token.Pos // the declaration's extent
}

// TestExportedNamesHaveANonTestCaller holds the ROADMAP north star's rule:
// an exported identifier under internal/ needs a caller that is not a
// test. A package-level name is referenced by a bare identifier in a
// non-test file of its own package or by a selector on an import of its
// package; a method by any selector of that name. Non-test files of the
// root module and of bench/ count; the declaration itself does not.
func TestExportedNamesHaveANonTestCaller(t *testing.T) {
	const module = "github.com/severifast/severifast"
	fset := token.NewFileSet()
	var decls []exportedDecl
	refs := map[string][]token.Pos{} // "import path.name" → where it is used
	selectors := map[string][]token.Pos{}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg = module + "/" + dir
		}
		own := map[*ast.Ident]bool{}
		if strings.HasPrefix(pkg, module+"/internal/") {
			decls = append(decls, exportedIn(f, pkg, own)...)
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					key := imports[x.Name] + "." + n.Sel.Name
					refs[key] = append(refs[key], n.Sel.Pos())
					return false
				}
				selectors[n.Sel.Name] = append(selectors[n.Sel.Name], n.Sel.Pos())
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !own[n] {
					key := pkg + "." + n.Name
					refs[key] = append(refs[key], n.Pos())
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var dead []string
	pkgLevel := 0
	for _, d := range decls {
		declared[d.key] = true
		uses := refs[d.pkg+"."+d.name]
		if d.method {
			uses = selectors[d.name]
		} else {
			pkgLevel++
		}
		used := false
		for _, p := range uses {
			used = used || p < d.start || p >= d.end
		}
		_, exempt := exportExemptions[d.key]
		switch {
		case exempt && used:
			t.Errorf("stale exemption %s: it has a non-test caller now", d.key)
		case !exempt && !used:
			dead = append(dead, fset.Position(d.start).String()+": "+d.key)
		}
	}
	for key := range exportExemptions {
		if !declared[key] {
			t.Errorf("stale exemption %s: no such exported name under internal/", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, move it into the _test.go that uses it, or unexport it", d)
	}
	t.Logf("%d exported package-level names and %d exported methods under internal/, %d exempt",
		pkgLevel, len(decls)-pkgLevel, len(exportExemptions))
}

// exportedIn lists the exported package-level names and methods one file
// of package pkg declares, and marks their declaring identifiers in own.
func exportedIn(f *ast.File, pkg string, own map[*ast.Ident]bool) []exportedDecl {
	short := pkg[strings.LastIndex(pkg, "/")+1:]
	var out []exportedDecl
	add := func(id *ast.Ident, key string, method bool, extent ast.Node) {
		own[id] = true
		out = append(out, exportedDecl{key: key, pkg: pkg, name: id.Name, method: method, start: extent.Pos(), end: extent.End()})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported():
			case d.Recv == nil:
				add(d.Name, short+"."+d.Name.Name, false, d)
			case !stdInterfaceMethods[d.Name.Name]:
				if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					add(d.Name, short+"."+recv+"."+d.Name.Name, true, d)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name, short+"."+s.Name.Name, false, s)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(id, short+"."+id.Name, false, s)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverName(e ast.Expr) string {
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
