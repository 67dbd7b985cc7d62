package severifast

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// globalStateExemptions are the package-level variables under internal/
// that hold process-global state, each with its reason: a map, a channel,
// a sync or sync/atomic value, or a struct (or a pointer to one) that
// holds one. ROADMAP item 7 gives the mutable ones an owner; until then a
// new one needs an entry here. An entry that no longer names such a
// variable fails the test, so the table only shrinks.
var globalStateExemptions = map[string]string{
	// Content caches and their counters (item 7(b)).
	"artifact.intern":         "the intern table: every interned buffer and its digest memos",
	"kernelgen.artifactCache": "Cached's kernels, one entry per preset",
	"kernelgen.inputs":        "the one table of generated initrds, verifier and firmware binaries and command lines",
	"kernelgen.calibAnswers":  "the calibration rows: the pinned ones and every key searched in this process",
	"kernelgen.calibSearches": "counts calibration searches, which the kernelgen tests read",
	"firecracker.rootfsOnce":  "builds rootfsImg, the one root filesystem image every boot attaches",

	// Shared by every fleet and cluster that has no Admission.
	"policy.permissiveOnce":   "builds permissiveEngine once",
	"policy.permissiveEngine": "the default-allow engine: one store, mutex and stats for every gate without a policy",

	// Counters of code with no host in scope (item 2).
	"telemetry.DefaultHostRecorder": "host counters of shared code such as the intern table",
	"chaos.worlds":                  "counts the harnesses this process built, which the chaos tests read",

	// Scratch pools: every take clears or overwrites what it gets.
	"guestmem.pagePool": "page-sized scratch for transforms whose output does not escape",
	"lz4.tables":        "the parse's 512 KiB match tables, cleared on every take",

	// Read-only tables.
	"kernelgen.pinnedCalib":   "the committed calibration rows",
	"policy.knownKinds":       "the claim kinds Lint accepts",
	"policy.knownMutationOps": "the mutation ops Lint accepts",
	"trace.eventLabels":       "the boot stages' names for rendering",
}

// TestProcessGlobalStateIsListed is ROADMAP item 7(a)'s census: every
// package-level variable in non-test code under internal/ whose type is a
// map, a channel, a sync or sync/atomic value, or a struct or pointer to a
// struct that holds one (through its fields, arrays and pointers to
// structs), must be in globalStateExemptions.
func TestProcessGlobalStateIsListed(t *testing.T) {
	fset, pkgs := nonTestPackages(t)
	found := map[string]bool{}
	var unlisted []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.types.Path(), module+"/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok || !stateIn(v.Type(), map[types.Type]bool{}) {
				continue
			}
			key := p.types.Name() + "." + name
			found[key] = true
			if _, ok := globalStateExemptions[key]; !ok {
				unlisted = append(unlisted, fset.Position(v.Pos()).String()+": "+key)
			}
		}
	}
	sort.Strings(unlisted)
	for _, u := range unlisted {
		t.Errorf("%s is process-global state: give it an owner, or add it to globalStateExemptions with a reason", u)
	}
	for key := range globalStateExemptions {
		if !found[key] {
			t.Errorf("stale exemption %s: no such package-level state under internal/", key)
		}
	}
	t.Logf("%d package-level variables under internal/ hold process-global state, %d exempt", len(found), len(globalStateExemptions))
}

// stateIn reports whether t is, or a struct of type t holds, a map, a
// channel or a sync or sync/atomic value. seen stops a recursive type.
func stateIn(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if n, ok := t.(*types.Named); ok {
		if pkg := n.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Map, *types.Chan:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if stateIn(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return stateIn(u.Elem(), seen)
	case *types.Pointer:
		if _, ok := u.Elem().Underlying().(*types.Struct); ok {
			return stateIn(u.Elem(), seen)
		}
	}
	return false
}
