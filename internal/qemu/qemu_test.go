package qemu

import (
	"testing"

	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/sev"
)

// TestExpectedDigestMatchesLaunchDescription pins the tool to the launch
// description at every SEV level: the digest of OVMF build 1 over a
// launch's hash file is that QEMU/OVMF launch's ExpectedDigest, so the two
// cannot drift.
func TestExpectedDigestMatchesLaunchDescription(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []sev.Level{sev.SEV, sev.ES, sev.SNP} {
		cfg := firecracker.Config{Scheme: firecracker.SchemeQEMUOVMF, Preset: kernelgen.Lupine(), Artifacts: art, Initrd: kernelgen.BuildInitrd(1, 1<<20), Level: level}
		hashes, err := cfg.ComponentHashes()
		if err != nil {
			t.Fatal(err)
		}
		want, err := cfg.ExpectedDigest()
		if err != nil {
			t.Fatal(err)
		}
		if got := ExpectedDigest(1, level, hashes); got != want {
			t.Errorf("%v: ExpectedDigest %x, the launch description's %x", level, got[:8], want[:8])
		}
	}
}
