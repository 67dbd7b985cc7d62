package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestRunWritesHashFile pins the bytes of the §4.3 hash file per boot
// flow (lupine, 2 MiB initrd), as the tool wrote them before it asked the
// facade for the launch's hashes: the QEMU/OVMF flow stages the same LZ4
// bzImage as SEVeriFast, the vmlinux flow the ELF.
func TestRunWritesHashFile(t *testing.T) {
	for scheme, want := range map[string]string{
		"severifast":         "d12a496677ce42490aaaea5455a6f310d97c7b0eca47d31ad896ca411495e6e4",
		"severifast-vmlinux": "eb7ec1b590c3a1c2289578c30123f2ebb1ea91df417b76d7bd98bc02a0ba65b7",
		"qemu-ovmf":          "d12a496677ce42490aaaea5455a6f310d97c7b0eca47d31ad896ca411495e6e4",
	} {
		path := filepath.Join(t.TempDir(), "hashes.txt")
		var out bytes.Buffer
		if err := run([]string{"-kernel", "lupine", "-initrd", "2", "-scheme", scheme, "-hashfile", path}, &out); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(b); hex.EncodeToString(got[:]) != want {
			t.Errorf("%s: hash file sha256 %x, want %s:\n%s", scheme, got, want, b)
		}
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
