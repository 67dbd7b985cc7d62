package severifast

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
	"rmp.Table.Pvalidate":               "4(c) edge: PVALIDATE of one page",
	"rmp.Table.CheckGuestAccess":        "4(c) edge: guest read",
	"rmp.Table.CheckHostWrite":          "4(c) edge: host write",
	"rmp.Table.Remap":                   "4(c) edge: remap clears the validated bit",
	"rmp.Table.Reclaim":                 "4(c) edge: reclaim on teardown",
	"rmp.Table.AssignedPages":           "4(c) edge: pages a teardown must reclaim",

	// Test hooks other packages' tests need.
	"artifact.ResetForTest":                 "internal/verifier tests start from an empty intern table",
	"costmodel.Unit":                        "unit-cost model for exact arithmetic in the attest, kbs, kvm and psp tests",
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
	obj        types.Object
	start, end token.Pos // the declaration's extent
}

// TestExportedNamesHaveANonTestCaller holds the ROADMAP north star's rule:
// an exported identifier under internal/ needs a caller that is not a
// test. Uses are resolved by type: a package-level name counts where an
// identifier denotes it, a method where a selector denotes it — through
// its own receiver type, a type that embeds it, or an interface method
// that its type implements. Non-test files of the root module and of
// bench/ count; the declaration itself does not.
func TestExportedNamesHaveANonTestCaller(t *testing.T) {
	fset, pkgs := nonTestPackages(t)
	var decls []exportedDecl
	uses := map[types.Object][]token.Pos{}
	viaInterface := map[*types.Func][]token.Pos{} // interface methods and their calls
	for _, p := range pkgs {
		if strings.HasPrefix(p.types.Path(), module+"/internal/") {
			for _, f := range p.files {
				decls = append(decls, exportedIn(f, p.info)...)
			}
		}
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			uses[obj] = append(uses[obj], id.Pos())
			if recv := recvOf(obj); recv != nil && types.IsInterface(recv.Type()) {
				fn := obj.(*types.Func)
				viaInterface[fn] = append(viaInterface[fn], id.Pos())
			}
		}
	}

	declared := map[string]bool{}
	var dead []string
	pkgLevel := 0
	for _, d := range decls {
		declared[d.key] = true
		outside := func(ps []token.Pos) bool {
			for _, p := range ps {
				if p < d.start || p >= d.end {
					return true
				}
			}
			return false
		}
		used := outside(uses[d.obj])
		if recv := recvOf(d.obj); recv != nil {
			for m, ps := range viaInterface {
				if !used && m.Name() == d.obj.Name() && implements(recv.Type(), m) {
					used = outside(ps)
				}
			}
		} else {
			pkgLevel++
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

// recvOf is the receiver of a method, or nil for any other object.
func recvOf(obj types.Object) *types.Var {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Type().(*types.Signature).Recv()
	}
	return nil
}

// implements reports whether a method with receiver recv, T or *T, can be
// reached through the interface method m: whether *T, whose method set
// holds both kinds, implements m's interface.
func implements(recv types.Type, m *types.Func) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return types.Implements(types.NewPointer(recv), recvOf(m).Type().Underlying().(*types.Interface))
}

// fieldExemptions are the exported fields of option structs under
// internal/ or of the facade that may go without a non-test setter, each
// with its reason.
// An entry that is no longer such a field, or that has gained a non-test
// setter, fails the test, so the table only shrinks.
var fieldExemptions = map[string]string{
	"expt.Options.Presets":           "tests shrink the sweep to one kernel",
	"expt.Options.InitrdSize":        "tests shrink the sweep's initrd",
	"expt.Options.ConcurrencyPoints": "tests shrink Fig. 12's sweep",
}

// TestConfigFieldsHaveANonTestSetter holds the options census: every
// exported field of an exported *Config or *Options struct under internal/
// or of the facade is an option, and an option needs a setter that is not
// a test. Setters are resolved by type: a key in a composite literal that
// denotes the field, or the selector of an assignment, ++/-- or & that
// denotes it — on its own struct type or one that embeds it — outside its
// own type's fillDefaults. Non-test files of the root module and of bench/
// count.
func TestConfigFieldsHaveANonTestSetter(t *testing.T) {
	fset, pkgs := nonTestPackages(t)
	type field struct {
		key string // "fleet.Config.MemSize"
		pos token.Pos
	}
	fields := map[*types.Var]field{}
	structs := 0
	for _, p := range pkgs {
		path := p.types.Path()
		if path != module && !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			structs++
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = field{p.types.Name() + "." + name + "." + f.Name(), f.Pos()}
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				// A type's own defaults, recv.Field = ... in its
				// fillDefaults, are not a setter.
				var recv types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "fillDefaults" && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
					recv = p.info.Defs[fd.Recv.List[0].Names[0]]
				}
				assign := func(e ast.Expr) {
					sel, ok := e.(*ast.SelectorExpr)
					if !ok {
						return
					}
					if x, ok := sel.X.(*ast.Ident); ok && recv != nil && p.info.Uses[x] == recv {
						return
					}
					if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
						set[origin(s.Obj()).(*types.Var)] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
								set[origin(v).(*types.Var)] = true
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							assign(lhs)
						}
					case *ast.IncDecStmt:
						assign(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							assign(n.X)
						}
					}
					return true
				})
			}
		}
	}

	declared := map[string]bool{}
	var unset []string
	for v, f := range fields {
		declared[f.key] = true
		_, exempt := fieldExemptions[f.key]
		switch {
		case exempt && set[v]:
			t.Errorf("stale exemption %s: it has a non-test setter now", f.key)
		case !exempt && !set[v]:
			unset = append(unset, fset.Position(f.pos).String()+": "+f.key)
		}
	}
	for key := range fieldExemptions {
		if !declared[key] {
			t.Errorf("stale exemption %s: no such option field", key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s has no setter outside tests: delete it or make it a constant", u)
	}
	t.Logf("%d option fields in %d option structs, %d exempt", len(fields), structs, len(fieldExemptions))
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

const module = "github.com/severifast/severifast"

// checkedPackage is one type-checked package of the root module or of
// bench/, built from its non-test files.
type checkedPackage struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// listedPackage is the part of go list's output the checks read.
type listedPackage struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles                 []string
}

// sourceTree is every package of the root module and of bench/,
// type-checked from its non-test files.
type sourceTree struct {
	fset *token.FileSet
	pkgs []checkedPackage
}

// nonTestPackages returns the tree both checks read, loading it once.
func nonTestPackages(t *testing.T) (*token.FileSet, []checkedPackage) {
	t.Helper()
	tree, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	return tree.fset, tree.pkgs
}

// loadTree type-checks every package of the root module and of bench/
// from its non-test files, the files go list selects under the default
// build tags. Each package imports the others' checked source, so all of
// them share one set of types; the standard library comes from the
// compiler's export data, which go list -export leaves in the build cache.
var loadTree = sync.OnceValues(func() (*sourceTree, error) {
	dirs := []string{".", "bench"}
	cmds := make([]*exec.Cmd, len(dirs))
	outs := make([]bytes.Buffer, len(dirs))
	for i, dir := range dirs {
		cmds[i] = exec.Command("go", "list", "-C", dir, "-deps", "-export", "-json=ImportPath,Dir,Export,Standard,GoFiles", "./...")
		cmds[i].Stdout, cmds[i].Stderr = &outs[i], os.Stderr
		if err := cmds[i].Start(); err != nil {
			return nil, err
		}
	}
	var listed []listedPackage
	seen := map[string]bool{}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dirs[i], err)
		}
		dec := json.NewDecoder(&outs[i])
		for {
			var lp listedPackage
			if err := dec.Decode(&lp); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if !seen[lp.ImportPath] {
				seen[lp.ImportPath] = true
				listed = append(listed, lp)
			}
		}
	}

	tree := &sourceTree{fset: token.NewFileSet()}
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(tree.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	// go list -deps lists a package after everything it imports.
	for _, lp := range listed {
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(tree.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		p, err := conf.Check(lp.ImportPath, tree.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = p
		tree.pkgs = append(tree.pkgs, checkedPackage{p, files, info})
	}
	return tree, nil
})

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportedIn lists the exported package-level names and methods with an
// exported receiver type that one file declares.
func exportedIn(f *ast.File, info *types.Info) []exportedDecl {
	var out []exportedDecl
	add := func(id *ast.Ident, extent ast.Node) {
		obj := info.Defs[id]
		key := obj.Pkg().Name() + "." + obj.Name()
		if recv := recvOf(obj); recv != nil {
			named := recv.Type()
			if p, ok := named.(*types.Pointer); ok {
				named = p.Elem()
			}
			tn := named.(*types.Named).Obj()
			if !tn.Exported() || stdInterfaceMethods[obj.Name()] {
				return
			}
			key = obj.Pkg().Name() + "." + tn.Name() + "." + obj.Name()
		}
		out = append(out, exportedDecl{key: key, obj: obj, start: extent.Pos(), end: extent.End()})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				add(d.Name, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name, s)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(id, s)
						}
					}
				}
			}
		}
	}
	return out
}
