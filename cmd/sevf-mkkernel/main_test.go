package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/cpio"
	"github.com/severifast/severifast/internal/elfx"
)

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-preset", "lupine", "-out", dir, "-initrd", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	// The vmlinux must be a parseable ELF of the paper's size.
	vm, err := os.ReadFile(filepath.Join(dir, "vmlinux-lupine"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := elfx.FileRegions(vm); err != nil {
		t.Fatalf("written vmlinux unparseable: %v", err)
	}
	if len(vm) < 22<<20 || len(vm) > 24<<20 {
		t.Fatalf("vmlinux %d bytes, want ~23 MiB", len(vm))
	}
	// The bzImage must carry the same kernel.
	bz, err := os.ReadFile(filepath.Join(dir, "bzImage-lupine.lz4"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := bzimage.Parse(bz)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bzimage.DecompressPayload(info.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, vm) {
		t.Fatal("bzImage payload differs from vmlinux file")
	}
	// The initrd must be a valid CPIO with /init.
	rd, err := os.ReadFile(filepath.Join(dir, "initrd.img"))
	if err != nil {
		t.Fatal(err)
	}
	files, err := cpio.Parse(rd)
	if err != nil {
		t.Fatal(err)
	}
	if cpio.Lookup(files, "init") == nil {
		t.Fatal("initrd missing /init")
	}
	if !strings.Contains(out.String(), "vmlinux-lupine") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestRunRejectsUnknownPreset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "arch", "-out", t.TempDir()}, &out); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
