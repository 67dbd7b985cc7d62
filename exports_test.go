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
	fset, files := parseNonTestFiles(t)
	var decls []exportedDecl
	refs := map[string][]token.Pos{} // "import path.name" → where it is used
	selectors := map[string][]token.Pos{}
	for _, sf := range files {
		own := map[*ast.Ident]bool{}
		if strings.HasPrefix(sf.pkg, module+"/internal/") {
			decls = append(decls, exportedIn(sf.f, sf.pkg, own)...)
		}
		imports := importsOf(sf.f)
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
					key := sf.pkg + "." + n.Name
					refs[key] = append(refs[key], n.Pos())
				}
			}
			return true
		}
		ast.Inspect(sf.f, visit)
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

// fieldExemptions are the exported fields of option structs under
// internal/ that may go without a non-test setter, each with its reason.
// An entry that is no longer such a field, or that has gained a non-test
// setter, fails the test, so the table only shrinks.
var fieldExemptions = map[string]string{
	"expt.Options.Model":             "tests price the sweep with a unit cost model",
	"expt.Options.Presets":           "tests shrink the sweep to one kernel",
	"expt.Options.InitrdSize":        "tests shrink the sweep's initrd",
	"expt.Options.ConcurrencyPoints": "tests shrink Fig. 12's sweep",
	"pagetable.Config.CBit":          "the hardware's C-bit position; tests build tables for another",
}

// TestConfigFieldsHaveANonTestSetter holds the options census: every
// exported field of an exported *Config or *Options struct under internal/
// is an option, and an option needs a setter that is not a test. A field
// is set by a key in a composite literal of its type, or by the selector
// of an assignment or & — matched by field name alone, as a parse carries
// no types — outside its own type's fillDefaults. Non-test files of the
// root module and of bench/ count.
func TestConfigFieldsHaveANonTestSetter(t *testing.T) {
	fset, files := parseNonTestFiles(t)
	type field struct {
		key string // "fleet.Config.MemSize"
		pos token.Pos
	}
	fields := map[string][]field{} // "import path.Type" → its exported fields
	keyed := map[string]bool{}     // "import path.Type.Field" set in a literal
	assigned := map[string]bool{}  // field names set by an assignment or &
	for _, sf := range files {
		if !strings.HasPrefix(sf.pkg, module+"/internal/") {
			continue
		}
		short := sf.pkg[strings.LastIndex(sf.pkg, "/")+1:]
		for _, decl := range sf.f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typ := sf.pkg + "." + ts.Name.Name
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields[typ] = append(fields[typ], field{short + "." + ts.Name.Name + "." + id.Name, id.Pos()})
						}
					}
				}
			}
		}
	}
	for _, sf := range files {
		imports := importsOf(sf.f)
		// typeOf names the option struct a type expression denotes, or "".
		typeOf := func(e ast.Expr) string {
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			typ := ""
			switch e := e.(type) {
			case *ast.Ident:
				typ = sf.pkg + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					typ = imports[x.Name] + "." + e.Sel.Name
				}
			}
			if fields[typ] == nil {
				return ""
			}
			return typ
		}
		for _, decl := range sf.f.Decls {
			// A type's own defaults, recv.Field = ... in its fillDefaults,
			// are not a setter.
			recv := ""
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "fillDefaults" && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
				recv = fd.Recv.List[0].Names[0].Name
			}
			set := func(e ast.Expr) {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == recv {
					return
				}
				assigned[sel.Sel.Name] = true
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if typ := typeOf(n.Type); typ != "" {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									keyed[typ+"."+id.Name] = true
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						set(lhs)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						set(n.X)
					}
				}
				return true
			})
		}
	}

	declared := map[string]bool{}
	var unset []string
	total := 0
	for typ, fs := range fields {
		for _, f := range fs {
			total++
			declared[f.key] = true
			name := f.key[strings.LastIndex(f.key, ".")+1:]
			isSet := keyed[typ+"."+name] || assigned[name]
			_, exempt := fieldExemptions[f.key]
			switch {
			case exempt && isSet:
				t.Errorf("stale exemption %s: it has a non-test setter now", f.key)
			case !exempt && !isSet:
				unset = append(unset, fset.Position(f.pos).String()+": "+f.key)
			}
		}
	}
	for key := range fieldExemptions {
		if !declared[key] {
			t.Errorf("stale exemption %s: no such option field under internal/", key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s has no setter outside tests: delete it or make it a constant", u)
	}
	t.Logf("%d option fields in %d option structs under internal/, %d exempt", total, len(fields), len(fieldExemptions))
}

const module = "github.com/severifast/severifast"

// sourceFile is one parsed non-test Go file and its package's import path.
type sourceFile struct {
	pkg string
	f   *ast.File
}

// parseNonTestFiles parses every non-test Go file of the root module and
// of bench/.
func parseNonTestFiles(t *testing.T) (*token.FileSet, []sourceFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
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
		files = append(files, sourceFile{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// importsOf maps each import's local name in f to its path.
func importsOf(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	return imports
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
