package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/severifast/severifast/internal/measure"
)

func TestRunPrintsDigest(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kernel", "lupine", "-initrd", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "expected launch digest") {
		t.Fatalf("output: %q", s)
	}
	// The hex digest is 64 chars on its own line.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines[len(lines)-1]) != 64 {
		t.Fatalf("digest line: %q", lines[len(lines)-1])
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-kernel", "lupine", "-initrd", "2"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kernel", "lupine", "-initrd", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("digest tool not deterministic")
	}
}

func TestRunDigestChangesWithConfig(t *testing.T) {
	digest := func(args ...string) string {
		var out bytes.Buffer
		if err := run(append(args, "-initrd", "2"), &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		return lines[len(lines)-1]
	}
	base := digest("-kernel", "lupine")
	if digest("-kernel", "lupine", "-verifier-seed", "9") == base {
		t.Fatal("verifier seed not reflected")
	}
	if digest("-kernel", "lupine", "-allow-key-sharing") == base {
		t.Fatal("key-sharing policy not reflected")
	}
	if digest("-kernel", "lupine", "-vcpus", "2") == base {
		t.Fatal("vcpu count not reflected")
	}
}

func TestRunWritesHashFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hashes.txt")
	var out bytes.Buffer
	if err := run([]string{"-kernel", "lupine", "-initrd", "2", "-hashfile", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := measure.ParseHashFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kernel == ([32]byte{}) || h.Initrd == ([32]byte{}) {
		t.Fatal("hash file has zero digests")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kernel", "gentoo"}, &out); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if err := run([]string{"-bogus-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// Stock boots are never measured: no digest, and no hash file either.
	hashFile := filepath.Join(t.TempDir(), "hashes.txt")
	for _, level := range []string{"none", "sev-snp"} {
		err := run([]string{"-kernel", "lupine", "-initrd", "2", "-scheme", "stock", "-level", level, "-hashfile", hashFile}, &out)
		if err == nil || !strings.Contains(err.Error(), "stock") {
			t.Fatalf("-scheme stock -level %s: %v, want the launch's refusal", level, err)
		}
		if _, statErr := os.Stat(hashFile); statErr == nil {
			t.Fatalf("-scheme stock -level %s wrote a hash file", level)
		}
	}
}
