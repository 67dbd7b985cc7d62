package firecracker

import (
	"errors"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/verifier"
)

// testInitrd is small to keep unit tests fast; size-sensitive assertions
// use the real DefaultInitrdSize in the expt package.
func testInitrd(t *testing.T) []byte {
	t.Helper()
	return kernelgen.BuildInitrd(1, 1<<20)
}

func lupineArtifacts(t *testing.T) *kernelgen.Artifacts {
	t.Helper()
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// runBoot executes one boot inside a fresh engine and returns the result.
func runBoot(t *testing.T, cfg Config) (*Result, error) {
	t.Helper()
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 42)
	var (
		res *Result
		err error
	)
	eng.Go("boot", func(p *sim.Proc) {
		res, err = Boot(p, host, cfg)
	})
	eng.Run()
	return res, err
}

func TestStockBootReachesInit(t *testing.T) {
	res, err := runBoot(t, Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: lupineArtifacts(t),
		Initrd:    testInitrd(t),
		Scheme:    SchemeStock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.InitrdOK {
		t.Fatal("initrd not mounted")
	}
	if res.Report.CPUs != 1 {
		t.Fatalf("guest saw %d CPUs", res.Report.CPUs)
	}
	b := res.Breakdown
	if b.Total <= 0 {
		t.Fatal("zero total boot time")
	}
	// The reference point: a non-SEV Lupine/AWS-class microVM boots in
	// tens of ms (§3.1: "about 40ms").
	if b.Total > 60*time.Millisecond {
		t.Fatalf("stock boot took %v, want tens of ms", b.Total)
	}
	if b.PreEncryption != 0 || b.BootVerification != 0 || b.BootstrapLoader != 0 {
		t.Fatalf("stock boot has SEV phases: %+v", b)
	}
}

// TestStockBootStagesTheInitrdByReference: a stock boot interns its initrd
// before staging it, as the SEV path does, so even the first boot of an
// initrd nothing interned before leaves guest pages that resolve to the
// caller's buffer, and the kernel stage unpacks it from there rather than
// from a copy read out of the guest.
func TestStockBootStagesTheInitrdByReference(t *testing.T) {
	initrd := append([]byte(nil), testInitrd(t)...) // a buffer no other boot has seen
	res, err := runBoot(t, Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: lupineArtifacts(t),
		Initrd:    initrd,
		Scheme:    SchemeStock,
	})
	if err != nil {
		t.Fatal(err)
	}
	art, base, err := res.Machine.Mem.ArtifactRange(measure.GPAInitrd, len(initrd), false)
	if err != nil {
		t.Fatal(err)
	}
	if art == nil || base != 0 || art.Len() != len(initrd) || &art.Bytes()[0] != &initrd[0] {
		t.Fatalf("the staged initrd resolves to %v at %d, want the boot's own %d-byte buffer", art, base, len(initrd))
	}
}

func TestSEVeriFastBzBootReachesInit(t *testing.T) {
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, kernelgen.Lupine().Cmdline)
	res, err := runBoot(t, Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastBz,
		Hashes:    &hashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.InitrdOK {
		t.Fatal("initrd not mounted")
	}
	b := res.Breakdown
	if b.PreEncryption <= 0 || b.BootVerification <= 0 || b.BootstrapLoader <= 0 {
		t.Fatalf("SEV phases missing: %+v", b)
	}
	// Fig. 10: SEVeriFast pre-encryption ~8 ms.
	if b.PreEncryption < 4*time.Millisecond || b.PreEncryption > 16*time.Millisecond {
		t.Fatalf("pre-encryption %v, paper says ~8 ms", b.PreEncryption)
	}
	if res.LaunchDigest == ([32]byte{}) {
		t.Fatal("no launch digest")
	}
}

func TestLaunchDigestMatchesExpectedTool(t *testing.T) {
	// The §4.2 tool: guest owner computes the expected digest from the
	// config alone; it must equal the PSP's measurement.
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	preset := kernelgen.Lupine()
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, preset.Cmdline)
	res, err := runBoot(t, Config{
		Preset:    preset,
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastBz,
		Hashes:    &hashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := measure.ExpectedDigest(measure.Config{
		Verifier: verifier.Image(1),
		Hashes:   hashes,
		Cmdline:  preset.Cmdline,
		VCPUs:    1,
		MemSize:  256 << 20,
		Level:    sev.SNP,
		Policy:   sev.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LaunchDigest != expected {
		t.Fatalf("PSP digest %x != expected-tool digest %x", res.LaunchDigest[:8], expected[:8])
	}
}

func TestSEVeriFastVmlinuxBoot(t *testing.T) {
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	hashes := measure.HashComponents(art.VMLinux, initrd, kernelgen.Lupine().Cmdline)
	res, err := runBoot(t, Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastVmlinux,
		Hashes:    &hashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Entry != art.Entry {
		t.Fatalf("entered kernel at %#x, want %#x", res.Report.Entry, art.Entry)
	}
	// vmlinux boot has no bootstrap-loader stage...
	if res.Breakdown.BootstrapLoader != 0 {
		t.Fatal("vmlinux boot ran a bootstrap loader")
	}
	// ...but verifies ~7x more bytes, so boot verification costs more than
	// the bzImage flavour (Fig. 11's tradeoff).
	bz := bootBz(t, art, initrd)
	if res.Breakdown.BootVerification <= bz.Breakdown.BootVerification {
		t.Fatalf("vmlinux verify %v <= bzImage verify %v; measured direct boot must favor compression",
			res.Breakdown.BootVerification, bz.Breakdown.BootVerification)
	}
}

// TestBzAndVmlinuxBootsLoadOneVMLinux: the two SEVeriFast schemes of one
// Cached kernel place its text from the same interned vmlinux, at the same
// offset — the bootstrap loader takes the vmlinux the bzImage remembers,
// the fw_cfg stream stages the file itself — so they share one ELF parse
// and one set of page templates.
func TestBzAndVmlinuxBootsLoadOneVMLinux(t *testing.T) {
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	hashes := measure.HashComponents(art.VMLinux, initrd, kernelgen.Lupine().Cmdline)
	vm, err := runBoot(t, Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastVmlinux,
		Hashes:    &hashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := artifact.Lookup(art.VMLinux)
	if want == nil {
		t.Fatal("Cached did not intern the vmlinux")
	}
	for name, res := range map[string]*Result{"bzImage": bootBz(t, art, initrd), "vmlinux": vm} {
		got, base, err := res.Machine.Mem.ArtifactRange(art.Entry, 1<<20, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || base != 0x120 {
			t.Errorf("%s boot: the kernel text aliases %p at %#x, want the interned vmlinux %p at 0x120", name, got, base, want)
		}
	}
}

func bootBz(t *testing.T, art *kernelgen.Artifacts, initrd []byte) *Result {
	t.Helper()
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, kernelgen.Lupine().Cmdline)
	res, err := runBoot(t, Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastBz,
		Hashes:    &hashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHostTamperingDetected is the paper's §2.6 "Protection from the Host"
// case 1: the host swaps a boot component after its hash was
// pre-encrypted. The boot verifier must refuse to boot.
func TestHostTamperingDetected(t *testing.T) {
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	preset := kernelgen.Lupine()
	// Hashes of the *genuine* components...
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, preset.Cmdline)
	// ...but the host stages a tampered kernel.
	evil := append([]byte(nil), art.BzImageLZ4...)
	evil[len(evil)/2] ^= 0x01
	evilArt := *art
	evilArt.BzImageLZ4 = evil

	_, err := runBoot(t, Config{
		Preset:    preset,
		Artifacts: &evilArt,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastBz,
		Hashes:    &hashes,
	})
	if !errors.Is(err, verifier.ErrVerification) {
		t.Fatalf("tampered kernel booted: err = %v, want ErrVerification", err)
	}
}

func TestTamperedInitrdDetected(t *testing.T) {
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	preset := kernelgen.Lupine()
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, preset.Cmdline)
	evil := append([]byte(nil), initrd...)
	evil[100] ^= 0xFF
	_, err := runBoot(t, Config{
		Preset:    preset,
		Artifacts: art,
		Initrd:    evil,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastBz,
		Hashes:    &hashes,
	})
	if !errors.Is(err, verifier.ErrVerification) {
		t.Fatalf("tampered initrd booted: err = %v, want ErrVerification", err)
	}
}

// TestMaliciousVerifierChangesDigest is §2.6 case 3: a patched verifier
// must produce a different launch digest, which the guest owner detects.
func TestMaliciousVerifierChangesDigest(t *testing.T) {
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, kernelgen.Lupine().Cmdline)
	boot := func(seed int64) [32]byte {
		res, err := runBoot(t, Config{
			Preset:       kernelgen.Lupine(),
			Artifacts:    art,
			Initrd:       initrd,
			Level:        sev.SNP,
			Scheme:       SchemeSEVeriFastBz,
			Hashes:       &hashes,
			VerifierSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.LaunchDigest
	}
	if boot(1) == boot(666) {
		t.Fatal("malicious verifier produced the same launch digest")
	}
}

// TestMaliciousHashesChangeDigest is §2.6 case 2: pre-encrypting hashes of
// malicious components yields a different launch digest.
func TestMaliciousHashesChangeDigest(t *testing.T) {
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	good := measure.HashComponents(art.BzImageLZ4, initrd, kernelgen.Lupine().Cmdline)
	evilKernel := append([]byte(nil), art.BzImageLZ4...)
	evilKernel[0x300] ^= 1
	bad := measure.HashComponents(evilKernel, initrd, kernelgen.Lupine().Cmdline)
	evilArt := *art
	evilArt.BzImageLZ4 = evilKernel

	boot := func(a *kernelgen.Artifacts, h measure.ComponentHashes) [32]byte {
		res, err := runBoot(t, Config{
			Preset:    kernelgen.Lupine(),
			Artifacts: a,
			Initrd:    initrd,
			Level:     sev.SNP,
			Scheme:    SchemeSEVeriFastBz,
			Hashes:    &h,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.LaunchDigest
	}
	if boot(art, good) == boot(&evilArt, bad) {
		t.Fatal("swapped components+hashes left the launch digest unchanged")
	}
}

func TestInBandHashingSlowerThanOutOfBand(t *testing.T) {
	// §4.3: providing precomputed hashes removes up to tens of ms of
	// hashing from the critical path.
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, kernelgen.Lupine().Cmdline)
	base := Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastBz,
	}
	oob := base
	oob.Hashes = &hashes
	inband := base // Hashes nil -> VMM hashes at launch

	resOOB, err := runBoot(t, oob)
	if err != nil {
		t.Fatal(err)
	}
	resIn, err := runBoot(t, inband)
	if err != nil {
		t.Fatal(err)
	}
	if resIn.Breakdown.Total <= resOOB.Breakdown.Total {
		t.Fatalf("in-band (%v) not slower than out-of-band (%v)",
			resIn.Breakdown.Total, resOOB.Breakdown.Total)
	}
}

func TestGzipCodecSlowerThanLZ4(t *testing.T) {
	// Fig. 5: LZ4 wins against gzip despite gzip's better ratio, because
	// decompression dominates.
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	run := func(codec bzimage.Codec, image []byte) *Result {
		hashes := measure.HashComponents(image, initrd, kernelgen.Lupine().Cmdline)
		res, err := runBoot(t, Config{
			Preset:    kernelgen.Lupine(),
			Artifacts: art,
			Initrd:    initrd,
			Level:     sev.SNP,
			Scheme:    SchemeSEVeriFastBz,
			Codec:     codec,
			Hashes:    &hashes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lz := run(bzimage.CodecLZ4, art.BzImageLZ4)
	gzImage, err := art.BzImageGzip()
	if err != nil {
		t.Fatal(err)
	}
	gz := run(bzimage.CodecGzip, gzImage)
	if gz.Breakdown.BootstrapLoader <= lz.Breakdown.BootstrapLoader {
		t.Fatalf("gzip decompress (%v) not slower than lz4 (%v)",
			gz.Breakdown.BootstrapLoader, lz.Breakdown.BootstrapLoader)
	}
	if gz.Breakdown.Total <= lz.Breakdown.Total {
		t.Fatalf("gzip total (%v) not slower than lz4 (%v)", gz.Breakdown.Total, lz.Breakdown.Total)
	}
}

func TestPreEncryptPageTablesAblation(t *testing.T) {
	// Fig. 7: pre-encrypting the page tables grows the root of trust by
	// 12 KiB; generating them in the verifier is cheaper overall.
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, kernelgen.Lupine().Cmdline)
	base := Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastBz,
		Hashes:    &hashes,
	}
	gen, err := runBoot(t, base)
	if err != nil {
		t.Fatal(err)
	}
	pre := base
	pre.PreEncryptPageTables = true
	preRes, err := runBoot(t, pre)
	if err != nil {
		t.Fatal(err)
	}
	if preRes.Breakdown.PreEncryption <= gen.Breakdown.PreEncryption {
		t.Fatal("pre-encrypting page tables did not increase pre-encryption time")
	}
	if preRes.LaunchDigest == gen.LaunchDigest {
		t.Fatal("page-table policy change left the digest unchanged")
	}
}

func TestSEVAndESLevels(t *testing.T) {
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, kernelgen.Lupine().Cmdline)
	for _, level := range []sev.Level{sev.SEV, sev.ES, sev.SNP} {
		res, err := runBoot(t, Config{
			Preset:    kernelgen.Lupine(),
			Artifacts: art,
			Initrd:    initrd,
			Level:     level,
			Scheme:    SchemeSEVeriFastBz,
			Hashes:    &hashes,
		})
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if !res.Report.InitrdOK {
			t.Fatalf("%v: initrd not mounted", level)
		}
	}
}

func TestConfigErrors(t *testing.T) {
	art := lupineArtifacts(t)
	if _, err := runBoot(t, Config{Preset: kernelgen.Lupine(), Scheme: SchemeStock}); err == nil {
		t.Fatal("missing artifacts accepted")
	}
	if _, err := runBoot(t, Config{Preset: kernelgen.Lupine(), Artifacts: art, Level: sev.SNP, Scheme: SchemeStock}); err == nil {
		t.Fatal("stock scheme with SEV accepted")
	}
	if _, err := runBoot(t, Config{Preset: kernelgen.Lupine(), Artifacts: art, Level: sev.None, Scheme: SchemeSEVeriFastBz}); err == nil {
		t.Fatal("SEVeriFast scheme without SEV accepted")
	}
}

func TestTHPReducesPvalidateTime(t *testing.T) {
	// §6.1: huge pages bring pvalidate from >60 ms to <1 ms for 256 MiB.
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, kernelgen.Lupine().Cmdline)
	cfg := Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastBz,
		Hashes:    &hashes,
	}
	run := func(thp bool) *Result {
		eng := sim.NewEngine()
		host := kvm.NewHost(eng, costmodel.Default(), 42)
		host.THP = thp
		var res *Result
		var err error
		eng.Go("boot", func(p *sim.Proc) { res, err = Boot(p, host, cfg) })
		eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(true)
	without := run(false)
	delta := without.Breakdown.BootVerification - with.Breakdown.BootVerification
	if delta < 50*time.Millisecond {
		t.Fatalf("4 KiB pvalidate only added %v to verification; paper says ~60 ms", delta)
	}
}

func TestMemoryFootprint(t *testing.T) {
	// §6.3: SEV adds ~16 KiB of bookkeeping per guest.
	art := lupineArtifacts(t)
	initrd := testInitrd(t)
	hashes := measure.HashComponents(art.BzImageLZ4, initrd, kernelgen.Lupine().Cmdline)
	res, err := runBoot(t, Config{
		Preset:    kernelgen.Lupine(),
		Artifacts: art,
		Initrd:    initrd,
		Level:     sev.SNP,
		Scheme:    SchemeSEVeriFastBz,
		Hashes:    &hashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Machine.Mem.SEVMetadataBytes()
	if got < 1<<10 || got > 64<<10 {
		t.Fatalf("SEV metadata %d bytes, want ~16 KiB scale", got)
	}
}
