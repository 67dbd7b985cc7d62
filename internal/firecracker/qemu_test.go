package firecracker

// The QEMU/OVMF flow's boot tests: the Fig. 10 anchors, the verifier's
// slice of the firmware, the non-SEV refusal, the tampered kernel and the
// pre-encrypted byte count.

import (
	"testing"
	"time"

	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/ovmf"
	"github.com/severifast/severifast/internal/sev"
)

func TestQEMUBootReachesInit(t *testing.T) {
	art, initrd := lupineArtifacts(t), testInitrd(t)
	res, err := runBoot(t, Config{
		Scheme:    SchemeQEMUOVMF,
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.InitrdOK {
		t.Fatal("initrd not mounted")
	}
	b := res.Breakdown
	// Fig. 10 anchors: pre-encryption ~288 ms, firmware ~3.1-3.3 s.
	if b.PreEncryption < 250*time.Millisecond || b.PreEncryption > 330*time.Millisecond {
		t.Fatalf("QEMU pre-encryption %v, paper says ~288 ms", b.PreEncryption)
	}
	if b.Firmware < 3*time.Second || b.Firmware > 3500*time.Millisecond {
		t.Fatalf("OVMF firmware %v, paper says ~3.2 s", b.Firmware)
	}
	if b.Total < 3400*time.Millisecond || b.Total > 4200*time.Millisecond {
		t.Fatalf("QEMU total %v, paper Fig. 9 is in the 3.5-4 s band", b.Total)
	}
}

func TestQEMUVerifierIsSmallFractionOfFirmware(t *testing.T) {
	// Fig. 3's point: the boot verifier is a thin slice of the >3 s OVMF
	// runtime.
	art, initrd := lupineArtifacts(t), testInitrd(t)
	res, err := runBoot(t, Config{
		Scheme:    SchemeQEMUOVMF,
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown
	if b.BootVerification <= 0 {
		t.Fatal("no boot verification span")
	}
	if frac := float64(b.BootVerification) / float64(b.Firmware); frac > 0.05 {
		t.Fatalf("boot verifier is %.1f%% of firmware time; Fig. 3 shows a small slice", frac*100)
	}
}

func TestQEMURejectsNonSEV(t *testing.T) {
	art, initrd := lupineArtifacts(t), testInitrd(t)
	if _, err := runBoot(t, Config{
		Scheme:    SchemeQEMUOVMF,
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.None,
	}); err == nil {
		t.Fatal("non-SEV level accepted")
	}
}

func TestQEMUDigestMatchesExpectedTool(t *testing.T) {
	art, initrd := lupineArtifacts(t), testInitrd(t)
	cfg := Config{Scheme: SchemeQEMUOVMF, Preset: kernelgen.Lupine(), Artifacts: art, Initrd: initrd, Level: sev.SNP}
	res, err := runBoot(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := cfg.ExpectedDigest(); err != nil || res.LaunchDigest != want {
		t.Fatalf("digest %x != expected %x (%v)", res.LaunchDigest[:8], want[:8], err)
	}
}

func TestQEMUTamperedKernelRefused(t *testing.T) {
	art, initrd := lupineArtifacts(t), testInitrd(t)
	evil := *art
	evil.BzImageLZ4 = append([]byte(nil), art.BzImageLZ4...)
	evil.BzImageLZ4[9000] ^= 0xFF
	// QEMU hashes whatever it stages, so a tampered kernel *boots* (QEMU
	// computed matching hashes) — but the launch digest differs and the
	// guest owner catches it at attestation (§2.6 case 2).
	good, err := runBoot(t, Config{Scheme: SchemeQEMUOVMF, Preset: kernelgen.Lupine(), Artifacts: art, Initrd: initrd, Level: sev.SNP})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := runBoot(t, Config{Scheme: SchemeQEMUOVMF, Preset: kernelgen.Lupine(), Artifacts: &evil, Initrd: initrd, Level: sev.SNP})
	if err != nil {
		t.Fatal(err)
	}
	if good.LaunchDigest == bad.LaunchDigest {
		t.Fatal("tampered kernel produced identical launch digest")
	}
}

func TestQEMUPreEncryptionDominatedByOVMFSize(t *testing.T) {
	// Sanity on the mechanism: QEMU pre-encrypts >1.1 MiB; SEVeriFast
	// pre-encrypts tens of KiB. Check the measured byte count.
	art, initrd := lupineArtifacts(t), testInitrd(t)
	cfg := Config{Scheme: SchemeQEMUOVMF, Preset: kernelgen.Lupine(), Artifacts: art, Initrd: initrd, Level: sev.SNP}
	res, err := runBoot(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The boot's digest folds exactly the OVMF plan, so the plan's bytes
	// are the ones it pre-encrypted.
	if want, err := cfg.ExpectedDigest(); err != nil || res.LaunchDigest != want {
		t.Fatalf("launch digest %x, want the plan's %x (%v)", res.LaunchDigest[:8], want[:8], err)
	}
	hashes, err := cfg.ComponentHashes()
	if err != nil {
		t.Fatal(err)
	}
	got := measure.PreEncryptedBytes(ovmf.PlanRegions(ovmfSeed, sev.SNP, hashes))
	if got < 1<<20 {
		t.Fatalf("QEMU pre-encrypted %d bytes, want >= 1 MiB (OVMF volume)", got)
	}
}
