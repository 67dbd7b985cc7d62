package severifast

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/psp"
)

func TestBootDefaults(t *testing.T) {
	res, err := Boot(Config{Kernel: KernelLupine})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 || !res.InitrdOK || res.CPUs != 1 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.LaunchDigest == ([32]byte{}) {
		t.Fatal("default (SNP) boot produced no launch digest")
	}
	if res.PreEncryption <= 0 || res.BootVerification <= 0 {
		t.Fatal("SEV phases missing")
	}
}

func TestStockBootFast(t *testing.T) {
	res, err := Boot(Config{Kernel: KernelLupine, Scheme: SchemeStock})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total > 80*time.Millisecond {
		t.Fatalf("stock boot %v, want tens of ms", res.Total)
	}
	if res.LaunchDigest != ([32]byte{}) {
		t.Fatal("non-SEV boot has a launch digest")
	}
}

func TestQEMUSchemeSlow(t *testing.T) {
	res, err := Boot(Config{Kernel: KernelLupine, Scheme: SchemeQEMUOVMF, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < 3*time.Second {
		t.Fatalf("QEMU/OVMF boot %v, want >3s", res.Total)
	}
	if res.Firmware < 3*time.Second {
		t.Fatalf("firmware %v", res.Firmware)
	}
}

func TestHeadline(t *testing.T) {
	// The abstract's claim on the public API: SEVeriFast beats QEMU/OVMF
	// by roughly 86-93%.
	cfgS := Config{Kernel: KernelLupine, InitrdMiB: 2}
	cfgQ := Config{Kernel: KernelLupine, Scheme: SchemeQEMUOVMF, InitrdMiB: 2}
	s, err := Boot(cfgS)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Boot(cfgQ)
	if err != nil {
		t.Fatal(err)
	}
	red := 1 - float64(s.Total)/float64(q.Total)
	if red < 0.83 || red > 0.97 {
		t.Fatalf("reduction %.3f outside the paper's neighbourhood", red)
	}
}

func TestBootWithAttestation(t *testing.T) {
	res, err := Boot(Config{Kernel: KernelAWS, InitrdMiB: 2, Attest: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attestation <= 0 {
		t.Fatal("attestation did not run")
	}
	// §6.1: attestation costs ~200 ms.
	if res.Attestation < 150*time.Millisecond || res.Attestation > 300*time.Millisecond {
		t.Fatalf("attestation %v, want ~200ms", res.Attestation)
	}
	if res.TotalWithAttest <= res.Total {
		t.Fatal("attestation not included in end-to-end time")
	}
}

// TestLupineSkipsAttestation: Lupine has no networking (paper §6.1), so an
// attested Lupine boot on either monitor is the unattested boot.
func TestLupineSkipsAttestation(t *testing.T) {
	for _, sc := range []Scheme{SchemeSEVeriFast, SchemeQEMUOVMF} {
		plain, err := Boot(Config{Kernel: KernelLupine, Scheme: sc, InitrdMiB: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Boot(Config{Kernel: KernelLupine, Scheme: sc, InitrdMiB: 2, Attest: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Attestation != 0 {
			t.Fatalf("%s: lupine has no networking; attestation must be skipped", sc)
		}
		if res.TotalWithAttest != plain.TotalWithAttest || res.LaunchDigest != plain.LaunchDigest ||
			res.BootVerification != plain.BootVerification || res.PreEncryption != plain.PreEncryption {
			t.Fatalf("%s: attested lupine boot %+v differs from the unattested %+v", sc, res, plain)
		}
	}
}

func TestExpectedLaunchDigestQEMU(t *testing.T) {
	cfg := Config{Kernel: KernelLupine, Scheme: SchemeQEMUOVMF, InitrdMiB: 2}
	res, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExpectedLaunchDigest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LaunchDigest != want {
		t.Fatal("QEMU digest mismatch")
	}
}

func TestBootConcurrentSerializesOnPSP(t *testing.T) {
	cfg := Config{Kernel: KernelLupine, InitrdMiB: 2}
	one, err := NewHost().BootConcurrent(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := NewHost().BootConcurrent(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var mean1, mean4 time.Duration
	mean1 = one[0].Total
	for _, r := range four {
		mean4 += r.Total
	}
	mean4 /= 4
	if mean4 <= mean1+50*time.Millisecond {
		t.Fatalf("4-way mean %v vs 1-way %v; PSP contention missing", mean4, mean1)
	}
}

func TestBootConcurrentNonSEVFlat(t *testing.T) {
	cfg := Config{Kernel: KernelLupine, Scheme: SchemeStock, InitrdMiB: 2}
	one, err := NewHost().BootConcurrent(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := NewHost().BootConcurrent(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range four {
		if r.Total > one[0].Total+5*time.Millisecond {
			t.Fatalf("non-SEV boot slowed under concurrency: %v vs %v", r.Total, one[0].Total)
		}
	}
}

func TestGuestOwnerOverHTTP(t *testing.T) {
	host := NewHost()
	cfg := Config{Kernel: KernelAWS, InitrdMiB: 2}
	secret := []byte("real network secret")
	owner := NewGuestOwner(host, secret)
	if err := owner.AllowConfig(cfg); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()

	res, err := host.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.AttestOverHTTP(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(secret) {
		t.Fatal("secret mismatch over HTTP")
	}
}

func TestGuestOwnerRefusesWrongVerifier(t *testing.T) {
	host := NewHost()
	good := Config{Kernel: KernelAWS, InitrdMiB: 2}
	owner := NewGuestOwner(host, []byte("s"))
	if err := owner.AllowConfig(good); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()

	// The host boots a guest with a patched verifier; the measurement
	// differs and the owner refuses (paper §2.6 case 3).
	evil := good
	evil.VerifierSeed = 666
	res, err := host.Boot(evil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.AttestOverHTTP(srv.URL); err == nil {
		t.Fatal("patched verifier attested successfully")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Boot(Config{Scheme: "grub"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := Boot(Config{Kernel: "gentoo"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := Boot(Config{Level: "tdx"}); err == nil {
		t.Fatal("unknown level accepted")
	}
	if _, err := NewHost().BootConcurrent(Config{}, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestGzipCompressionOption(t *testing.T) {
	lz, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	gz, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2, Codec: CodecGzip})
	if err != nil {
		t.Fatal(err)
	}
	if gz.BootstrapLoader <= lz.BootstrapLoader {
		t.Fatal("gzip decompression not slower than lz4")
	}
}

func TestDisableTHPOption(t *testing.T) {
	fast, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2, DisableTHP: true})
	if err != nil {
		t.Fatal(err)
	}
	if slow.BootVerification-fast.BootVerification < 50*time.Millisecond {
		t.Fatal("4 KiB pvalidate penalty missing")
	}
}

func TestHugePageValidationOption(t *testing.T) {
	// The paper's 2 MiB ablation, hardware-faithful: a huge-page
	// pvalidate only covers uniformly-unvalidated blocks, so the blocks
	// fragmented by launch-updated pages fall back to per-4 KiB
	// instructions. Strict accounting therefore sits strictly between
	// the flat THP estimate and full 4 KiB validation — and its exact
	// virtual-time output is a golden of its own.
	def, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2, HugePageValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	fourK, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2, DisableTHP: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(def.BootVerification < hp.BootVerification && hp.BootVerification < fourK.BootVerification) {
		t.Fatalf("strict huge-page verification %v not between THP %v and 4 KiB %v",
			hp.BootVerification, def.BootVerification, fourK.BootVerification)
	}
	// Goldens: the option off must not move the default's virtual time,
	// and the option on has its own pinned output.
	const defGolden = 164645338 * time.Nanosecond
	const hpGolden = 165122238 * time.Nanosecond
	if def.Total != defGolden {
		t.Fatalf("default cold boot drifted: %v, golden %v", def.Total, defGolden)
	}
	if hp.Total != hpGolden {
		t.Fatalf("huge-page cold boot drifted: %v, golden %v", hp.Total, hpGolden)
	}
}

func TestInBandHashingOption(t *testing.T) {
	oob, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	in, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2, InBandHashing: true})
	if err != nil {
		t.Fatal(err)
	}
	if in.Total <= oob.Total {
		t.Fatal("in-band hashing not slower")
	}
}

func TestSEVMetadataReported(t *testing.T) {
	res, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SEVMetadataBytes < 1024 || res.SEVMetadataBytes > 64*1024 {
		t.Fatalf("SEV metadata %d bytes", res.SEVMetadataBytes)
	}
}

func TestWarmBootFromSnapshot(t *testing.T) {
	host := NewHost()
	cold, err := host.Boot(Config{Kernel: KernelAWS, InitrdMiB: 2, AllowKeySharing: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := host.Snapshot(cold)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := host.WarmBoot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Total >= cold.Total {
		t.Fatalf("warm start (%v) not faster than cold boot (%v)", warm.Total, cold.Total)
	}
	if warm.Total <= 0 {
		t.Fatal("zero warm-start time")
	}
}

func TestWarmBootNeedsKeySharingPolicy(t *testing.T) {
	// A donor booted with the default (strict) policy cannot donate its
	// key: the paper's trade-off is not silently bypassable, and the
	// refusal says why.
	host := NewHost()
	cold, err := host.Boot(Config{Kernel: KernelAWS, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := host.Snapshot(cold)
	if err != nil {
		t.Fatal(err)
	}
	_, err = host.WarmBoot(snap)
	if err == nil {
		t.Fatal("warm boot succeeded against a NoKeySharing donor")
	}
	if !errors.Is(err, psp.ErrPolicy) || !strings.Contains(err.Error(), "key sharing") {
		t.Fatalf("strict donor refused with %q, want a psp.ErrPolicy naming key sharing", err)
	}
}

func TestKeySharingChangesDigest(t *testing.T) {
	strict, err := ExpectedLaunchDigest(Config{Kernel: KernelLupine, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := ExpectedLaunchDigest(Config{Kernel: KernelLupine, InitrdMiB: 2, AllowKeySharing: true})
	if err != nil {
		t.Fatal(err)
	}
	if strict == relaxed {
		t.Fatal("key-sharing policy invisible in the expected digest")
	}
}

func TestAllowKeySharingStillAttests(t *testing.T) {
	res, err := Boot(Config{Kernel: KernelAWS, InitrdMiB: 2, AllowKeySharing: true, Attest: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attestation <= 0 {
		t.Fatal("attestation skipped")
	}
}

func TestWarmBootNonSEV(t *testing.T) {
	host := NewHost()
	cold, err := host.Boot(Config{Kernel: KernelAWS, Scheme: SchemeStock, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := host.Snapshot(cold)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := host.WarmBoot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Total >= cold.Total {
		t.Fatalf("plain warm start (%v) not faster than cold (%v)", warm.Total, cold.Total)
	}
}
