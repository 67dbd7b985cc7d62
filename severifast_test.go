package severifast

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
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

// TestResolveHandsOverTheBuiltInitrd: a launch resolved after its initrd
// was built is handed that build's array, as a first facade boot after
// set-up is, so the boot generates no initrd and hashes none.
func TestResolveHandsOverTheBuiltInitrd(t *testing.T) {
	cfg := Config{Kernel: KernelLupine, InitrdMiB: 1, Seed: 5}
	built := kernelgen.BuildInitrd(cfg.Seed, cfg.InitrdMiB<<20)
	l, err := cfg.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Initrd) != len(built) || &l.Initrd[0] != &built[0] {
		t.Fatal("resolve built the initrd again instead of handing over the one already built")
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

// TestAttestOverHTTPEnrollsOnce: two guests of a host nothing enrolled
// attest at once (run it under -race). The host is enrolled once and its
// reports are built one at a time, so both are released the secret, and
// the host's platform key becomes the one its twin (same seed) got.
func TestAttestOverHTTPEnrollsOnce(t *testing.T) {
	cfg := Config{Kernel: KernelAWS, InitrdMiB: 2}
	twin := NewHostSeed(3)
	owner := NewGuestOwner(twin, []byte("s"))
	if err := owner.AllowConfig(cfg); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()

	host := NewHostSeed(3)
	results, err := host.BootConcurrent(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, len(results))
	for _, r := range results {
		go func(r *Result) {
			got, err := r.AttestOverHTTP(srv.URL)
			if err == nil && string(got) != "s" {
				err = fmt.Errorf("secret %q", got)
			}
			errs <- err
		}(r)
	}
	for range results {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if !host.PlatformKey().Equal(twin.PlatformKey()) {
		t.Fatal("the enrolled host's platform key differs from its twin's")
	}
}

// TestBootWhileAttestingOverHTTP: a host boots while a Result of the same
// host attests over HTTP. Both write the host's PSP, so they must take
// turns; run under -race, the test fails if they do not.
func TestBootWhileAttestingOverHTTP(t *testing.T) {
	cfg := Config{Kernel: KernelAWS, InitrdMiB: 2}
	twin := NewHostSeed(5)
	owner := NewGuestOwner(twin, []byte("s"))
	if err := owner.AllowConfig(cfg); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()

	host := NewHostSeed(5)
	first, err := host.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The guest attests until told to stop; the host boots until the
	// guest has attested three times, so the two overlap.
	var attests atomic.Int32
	stop := make(chan struct{})
	attested := make(chan error, 1)
	go func() {
		for {
			got, err := first.AttestOverHTTP(srv.URL)
			if err == nil && string(got) != "s" {
				err = fmt.Errorf("secret %q", got)
			}
			attests.Add(1)
			select {
			case <-stop:
			default:
				if err == nil {
					continue
				}
			}
			attested <- err
			return
		}
	}()
	for attests.Load() < 3 {
		select {
		case err := <-attested:
			t.Fatalf("attesting stopped early: %v", err)
		default:
		}
		if _, err := host.Boot(cfg); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-attested; err != nil {
		t.Fatal(err)
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
	if _, err := res.AttestOverHTTP(srv.URL); !errors.Is(err, ErrMeasurementMismatch) {
		t.Fatalf("patched verifier: %v, want ErrMeasurementMismatch", err)
	}

	// A correct guest of another host presents a chain the owner's
	// authority never issued: a denial, though the measurement is right.
	foreign, err := NewHostSeed(2).Boot(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.AttestOverHTTP(srv.URL); !errors.Is(err, ErrAttestationDenied) {
		t.Fatalf("foreign platform: %v, want ErrAttestationDenied", err)
	}
}

// TestGuestOwnerTakesNoClaimsOverHTTP: a host that reaches the owner's
// socket cannot file the digest of its patched verifier as a reference
// value, so the patched guest stays refused.
func TestGuestOwnerTakesNoClaimsOverHTTP(t *testing.T) {
	host := NewHost()
	good := Config{Kernel: KernelAWS, InitrdMiB: 2}
	owner := NewGuestOwner(host, []byte("s"))
	if err := owner.AllowConfig(good); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()

	evil := good
	evil.VerifierSeed = 666
	res, err := host.Boot(evil)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&kbs.Client{Base: srv.URL}).File(kbs.RefClaim(res.LaunchDigest, "patched")); err == nil {
		t.Fatal("the owner's socket filed a reference value")
	}
	if _, err := res.AttestOverHTTP(srv.URL); !errors.Is(err, ErrMeasurementMismatch) {
		t.Fatalf("patched verifier after a claim attempt: %v, want ErrMeasurementMismatch", err)
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
	// The default boot's virtual time is a golden: one flat 2 MiB
	// pvalidate charge over guest memory.
	const golden = 164645338 * time.Nanosecond
	if fast.Total != golden {
		t.Fatalf("default cold boot drifted: %v, golden %v", fast.Total, golden)
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

// TestWarmBootReportsDonorDigest: a SEV fork attests with its donor's
// launch digest, so its Result reports that digest — the one
// ExpectedLaunchDigest predicts for the donor's Config — along with the
// donor's vCPUs and its own SEV metadata. A stock fork has no digest.
func TestWarmBootReportsDonorDigest(t *testing.T) {
	warmOf := func(cfg Config) (cold, warm *Result) {
		t.Helper()
		host := NewHost()
		cold, err := host.Boot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := host.Snapshot(cold)
		if err != nil {
			t.Fatal(err)
		}
		if warm, err = host.WarmBoot(snap); err != nil {
			t.Fatal(err)
		}
		return cold, warm
	}
	cfg := Config{Kernel: KernelLupine, InitrdMiB: 2, VCPUs: 2, AllowKeySharing: true}
	cold, warm := warmOf(cfg)
	want, err := ExpectedLaunchDigest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.LaunchDigest != cold.LaunchDigest || warm.LaunchDigest != want {
		t.Fatalf("warm digest %x, donor %x, expected %x", warm.LaunchDigest[:8], cold.LaunchDigest[:8], want[:8])
	}
	if warm.CPUs != 2 || warm.SEVMetadataBytes == 0 {
		t.Fatalf("warm CPUs %d, SEV metadata %d bytes; want 2 and nonzero", warm.CPUs, warm.SEVMetadataBytes)
	}
	if _, warm := warmOf(Config{Kernel: KernelLupine, Scheme: SchemeStock, InitrdMiB: 2}); warm.LaunchDigest != ([32]byte{}) {
		t.Fatalf("stock warm boot reports digest %x", warm.LaunchDigest[:8])
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
