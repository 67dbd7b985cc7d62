package qemu

import (
	"strings"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/ovmf"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

func runBoot(t *testing.T, cfg firecracker.Config) (*firecracker.Result, error) {
	t.Helper()
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 42)
	var (
		res *firecracker.Result
		err error
	)
	eng.Go("qemu", func(p *sim.Proc) { res, err = Boot(p, host, cfg) })
	eng.Run()
	return res, err
}

func lupine(t *testing.T) (*kernelgen.Artifacts, []byte) {
	t.Helper()
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	return art, kernelgen.BuildInitrd(1, 1<<20)
}

func TestQEMUBootReachesInit(t *testing.T) {
	art, initrd := lupine(t)
	res, err := runBoot(t, firecracker.Config{
		Scheme:    firecracker.SchemeQEMUOVMF,
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
	art, initrd := lupine(t)
	res, err := runBoot(t, firecracker.Config{
		Scheme:    firecracker.SchemeQEMUOVMF,
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
	art, initrd := lupine(t)
	if _, err := runBoot(t, firecracker.Config{
		Scheme:    firecracker.SchemeQEMUOVMF,
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.None,
	}); err == nil {
		t.Fatal("non-SEV level accepted")
	}
}

func TestQEMUDigestMatchesExpectedTool(t *testing.T) {
	art, initrd := lupine(t)
	preset := kernelgen.Lupine()
	res, err := runBoot(t, firecracker.Config{
		Scheme:    firecracker.SchemeQEMUOVMF,
		Preset:    preset,
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
	})
	if err != nil {
		t.Fatal(err)
	}
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, preset.Cmdline)
	if want := ExpectedDigest(1, sev.SNP, hashes); res.LaunchDigest != want {
		t.Fatalf("digest %x != expected %x", res.LaunchDigest[:8], want[:8])
	}
}

func TestQEMUTamperedKernelRefused(t *testing.T) {
	art, initrd := lupine(t)
	evil := *art
	evil.BzImageLZ4 = append([]byte(nil), art.BzImageLZ4...)
	evil.BzImageLZ4[9000] ^= 0xFF
	// QEMU hashes whatever it stages, so a tampered kernel *boots* (QEMU
	// computed matching hashes) — but the launch digest differs and the
	// guest owner catches it at attestation (§2.6 case 2).
	good, err := runBoot(t, firecracker.Config{Scheme: firecracker.SchemeQEMUOVMF, Preset: kernelgen.Lupine(), Artifacts: art, Initrd: initrd, Level: sev.SNP})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := runBoot(t, firecracker.Config{Scheme: firecracker.SchemeQEMUOVMF, Preset: kernelgen.Lupine(), Artifacts: &evil, Initrd: initrd, Level: sev.SNP})
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
	art, initrd := lupine(t)
	cfg := firecracker.Config{Scheme: firecracker.SchemeQEMUOVMF, Preset: kernelgen.Lupine(), Artifacts: art, Initrd: initrd, Level: sev.SNP}
	res, err := runBoot(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The boot's digest folds exactly the OVMF plan, so the plan's bytes
	// are the ones it pre-encrypted.
	if want, err := LaunchDigest(cfg); err != nil || res.LaunchDigest != want {
		t.Fatalf("launch digest %x, want the plan's %x (%v)", res.LaunchDigest[:8], want[:8], err)
	}
	hashes, err := cfg.ComponentHashes()
	if err != nil {
		t.Fatal(err)
	}
	got := measure.PreEncryptedBytes(ovmf.PlanRegions(1, sev.SNP, hashes))
	if got < 1<<20 {
		t.Fatalf("QEMU pre-encrypted %d bytes, want >= 1 MiB (OVMF volume)", got)
	}
}

// TestQEMURefusesFirecrackerSchemes holds Boot and LaunchDigest to the QEMU
// scheme: a Firecracker launch handed to this flow is refused, not booted
// or measured as if it were a QEMU one.
func TestQEMURefusesFirecrackerSchemes(t *testing.T) {
	art, initrd := lupine(t)
	for _, sc := range []firecracker.Scheme{firecracker.SchemeStock, firecracker.SchemeSEVeriFastBz, firecracker.SchemeSEVeriFastVmlinux} {
		cfg := firecracker.Config{Scheme: sc, Preset: kernelgen.Lupine(), Artifacts: art, Initrd: initrd, Level: sev.SNP}
		if _, err := runBoot(t, cfg); err == nil || !strings.Contains(err.Error(), "not QEMU/OVMF") {
			t.Errorf("Boot of %v: %v, want a refusal naming QEMU/OVMF", sc, err)
		}
		if _, err := LaunchDigest(cfg); err == nil || !strings.Contains(err.Error(), "not QEMU/OVMF") {
			t.Errorf("LaunchDigest of %v: %v, want a refusal naming QEMU/OVMF", sc, err)
		}
	}
}
