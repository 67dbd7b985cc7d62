package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestGoldenCampaign pins the seed-42 strict campaign byte for byte: the
// JSON report (every params, detail and end_ns) and the table on stdout.
// A diff here is a behaviour change of the adversary, the oracle or the
// simulator — never noise: the campaign has no wall-clock state.
func TestGoldenCampaign(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run([]string{"-seed", "42", "-strict", "-report-out", report}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	gotJSON, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	// The last stdout line names the temp path; everything above it is pinned.
	table, last, _ := strings.Cut(out.String(), "report written to ")
	if strings.TrimSpace(last) != report {
		t.Fatalf("stdout does not end with the report path:\n%s", out.String())
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"campaign_seed42.json", gotJSON},
		{"campaign_seed42.txt", []byte(table)},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatalf("write golden: %v", err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with -update-golden to create): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("output diverged from golden %s (re-run with -update-golden if intentional)\n got:\n%s", path, g.got)
		}
	}
	if strings.Contains(table, "ESCAPE") || strings.Contains(table, "unexpected") {
		t.Errorf("strict campaign reported an escape or an unexpected detection:\n%s", table)
	}
}

// TestWeakenMustEscape is the CLI's oracle self-test: the broken verifier
// must be reported as exactly one ESCAPE, and that is a passing run.
func TestWeakenMustEscape(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "42", "-weaken"}, &out); err != nil {
		t.Fatalf("-weaken: %v\n%s", err, out.String())
	}
	var escapes []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " ESCAPE ") {
			escapes = append(escapes, line)
		}
	}
	if len(escapes) != 1 || !strings.Contains(escapes[0], "digest-truncate-all") || !strings.HasPrefix(strings.TrimSpace(escapes[0]), "psp") {
		t.Fatalf("want exactly one ESCAPE, psp/digest-truncate-all; got %q\n%s", escapes, out.String())
	}
}

func TestUnknownFamilyFails(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-campaign", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("-campaign bogus: err = %v, want an error naming the family", err)
	}
	if out.Len() != 0 {
		t.Errorf("a refused campaign printed a report:\n%s", out.String())
	}
}
