package measure

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
)

func sampleConfig() Config {
	return Config{
		Verifier: kernelgen.BuildBinary(1, 13*1024),
		Hashes:   HashComponents([]byte("kernel"), []byte("initrd"), "console=ttyS0"),
		Cmdline:  "console=ttyS0",
		VCPUs:    1,
		MemSize:  256 << 20,
		Level:    sev.SNP,
		Policy:   sev.DefaultPolicy(),
	}
}

// parseHashFile reads WriteHashFile's format: the reader of the file
// sevf-digest -hashfile writes, which only the tests need.
func parseHashFile(r io.Reader) (ComponentHashes, error) {
	var h ComponentHashes
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return h, fmt.Errorf("measure: malformed hash file line %q", line)
		}
		raw, err := hex.DecodeString(fields[1])
		if err != nil || len(raw) != 32 {
			return h, fmt.Errorf("measure: bad digest on line %q", line)
		}
		switch fields[0] {
		case "kernel":
			copy(h.Kernel[:], raw)
		case "initrd":
			copy(h.Initrd[:], raw)
		case "cmdline":
			copy(h.Cmdline[:], raw)
		default:
			return h, fmt.Errorf("measure: unknown component %q", fields[0])
		}
		seen[fields[0]] = true
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if !seen["kernel"] || !seen["initrd"] {
		return h, fmt.Errorf("measure: hash file missing kernel or initrd entry")
	}
	return h, nil
}

func TestHashFileRoundTrip(t *testing.T) {
	h := HashComponents([]byte("k"), []byte("i"), "c")
	var buf bytes.Buffer
	if err := WriteHashFile(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := parseHashFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatal("hash file round trip mismatch")
	}
}

func TestParseHashFileRejectsGarbage(t *testing.T) {
	cases := []string{
		"kernel xyz\ninitrd abc\n",
		"kernel deadbeef\n", // wrong length digest
		"mystery 0000000000000000000000000000000000000000000000000000000000000000\n",
		"kernel 0000000000000000000000000000000000000000000000000000000000000000 extra\n",
		"", // missing entries
	}
	for _, c := range cases {
		if _, err := parseHashFile(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

func TestParseHashFileAllowsComments(t *testing.T) {
	h := HashComponents([]byte("k"), []byte("i"), "c")
	var buf bytes.Buffer
	buf.WriteString("# generated out of band\n\n")
	if err := WriteHashFile(&buf, h); err != nil {
		t.Fatal(err)
	}
	if _, err := parseHashFile(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestHashPageRoundTrip(t *testing.T) {
	h := HashComponents([]byte("kernel bytes"), []byte("initrd bytes"), "cmdline")
	page := h.HashPage()
	if len(page) != 4096 {
		t.Fatalf("hash page %d bytes", len(page))
	}
	got, err := ParseHashPage(page)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatal("hash page round trip mismatch")
	}
}

func TestParseHashPageRejectsJunk(t *testing.T) {
	if _, err := ParseHashPage(make([]byte, 4096)); err == nil {
		t.Fatal("zero page accepted as hash page")
	}
	if _, err := ParseHashPage([]byte("short")); err == nil {
		t.Fatal("short page accepted")
	}
}

func TestPlanRegions(t *testing.T) {
	regions, err := Plan(sampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range regions {
		names[r.Name] = true
	}
	for _, want := range []string{"verifier", "hashes", "boot_params", "cmdline", "mptable", "vmsa"} {
		if !names[want] {
			t.Errorf("plan missing region %q", want)
		}
	}
	if names["pagetables"] {
		t.Error("default plan must NOT pre-encrypt page tables (Fig. 7: verifier generates them)")
	}
}

func TestPlanAblationPreEncryptsPageTables(t *testing.T) {
	cfg := sampleConfig()
	cfg.PreEncryptPageTables = true
	regions, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range regions {
		if r.Name == "pagetables" {
			found = true
		}
	}
	if !found {
		t.Fatal("ablation flag did not add page tables to the plan")
	}
}

func TestPlanSizeNearPaperRootOfTrust(t *testing.T) {
	// SEVeriFast's root of trust: ~13 KiB verifier + hash page + zero page
	// + cmdline + mptable + VMSA — a couple dozen KiB, the basis of its
	// ~8 ms pre-encryption (vs. >256 ms for 1 MiB OVMF).
	regions, err := Plan(sampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := PreEncryptedBytes(regions)
	if total < 13*1024 || total > 64*1024 {
		t.Fatalf("pre-encrypted bytes = %d, want tens of KiB", total)
	}
}

func TestPlanNoVMSAForBaseSEV(t *testing.T) {
	cfg := sampleConfig()
	cfg.Level = sev.SEV
	cfg.Policy = sev.Policy{NoDebug: true}
	regions, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if r.Name == "vmsa" {
			t.Fatal("base SEV must not measure a VMSA")
		}
	}
}

func TestPlanValidation(t *testing.T) {
	cfg := sampleConfig()
	cfg.Verifier = nil
	if _, err := Plan(cfg); err == nil {
		t.Fatal("empty verifier accepted")
	}
	cfg = sampleConfig()
	cfg.VCPUs = 0
	if _, err := Plan(cfg); err == nil {
		t.Fatal("zero vCPUs accepted")
	}
	cfg = sampleConfig()
	cfg.Cmdline = strings.Repeat("x", 5000)
	if _, err := Plan(cfg); err == nil {
		t.Fatal("oversized cmdline accepted")
	}
}

func TestExpectedDigestDeterministic(t *testing.T) {
	a, err := ExpectedDigest(sampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExpectedDigest(sampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("expected digest not deterministic")
	}
}

func TestExpectedDigestSensitivity(t *testing.T) {
	base, _ := ExpectedDigest(sampleConfig())

	mutate := func(f func(*Config)) [32]byte {
		cfg := sampleConfig()
		f(&cfg)
		d, err := ExpectedDigest(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if mutate(func(c *Config) { c.Verifier = kernelgen.BuildBinary(2, 13*1024) }) == base {
		t.Fatal("digest ignores verifier bytes")
	}
	if mutate(func(c *Config) { c.Hashes.Kernel[0] ^= 1 }) == base {
		t.Fatal("digest ignores kernel hash")
	}
	if mutate(func(c *Config) { c.Cmdline = "console=ttyS0 quiet" }) == base {
		t.Fatal("digest ignores cmdline")
	}
	if mutate(func(c *Config) { c.VCPUs = 2 }) == base {
		t.Fatal("digest ignores vCPU count (mptable)")
	}
	if mutate(func(c *Config) { c.Policy.NoDebug = false }) == base {
		t.Fatal("digest ignores policy")
	}
}

func TestVMSADeterministicAndEntryDependent(t *testing.T) {
	a := VMSAPage(GPAVerifier)
	b := VMSAPage(GPAVerifier)
	if !bytes.Equal(a, b) {
		t.Fatal("VMSA page not deterministic")
	}
	if bytes.Equal(a, VMSAPage(0x200000)) {
		t.Fatal("VMSA ignores entry point")
	}
	if len(a) != 4096 {
		t.Fatalf("VMSA page %d bytes", len(a))
	}
}

func TestLayoutNoOverlaps(t *testing.T) {
	regions, err := Plan(sampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		name   string
		lo, hi uint64
	}
	var spans []span
	for _, r := range regions {
		spans = append(spans, span{r.Name, r.GPA, r.GPA + uint64(len(r.Data))})
	}
	// Also the kernel load region for the biggest kernel (linked at
	// 16 MiB), and the staging areas, within a 256 MiB guest.
	const kernelLoad = 0x1000000
	spans = append(spans,
		span{"kernel", kernelLoad, kernelLoad + 61<<20}, // largest vmlinux
		span{"stageA", GPAStageA, GPAStageA + 61<<20},   // largest staged image
		span{"stageB", GPAStageB, GPAStageB + 17<<20},
		span{"initrd", GPAInitrd, GPAInitrd + 16<<20 + 1<<16},
		span{"bztarget", GPABzTarget, GPABzTarget + 15<<20},
		span{"scratch", GPAScratch, GPAScratch + 64<<10},
	)
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Errorf("layout overlap: %s [%#x,%#x) vs %s [%#x,%#x)", a.name, a.lo, a.hi, b.name, b.lo, b.hi)
			}
		}
	}
}

// TestHashComponentsOnInternedInputsAllocatesOnce: the owner's hash pass
// over an interned kernel and initrd is two digest-memo hits and one
// command-line hash, done on the caller's goroutine with nothing handed
// to another. Its one allocation is the bytes of a command line longer
// than 32 bytes, which every preset's is.
func TestHashComponentsOnInternedInputsAllocatesOnce(t *testing.T) {
	kernel := artifact.Intern(bytes.Repeat([]byte("kernel"), 4096)).Bytes()
	initrd := artifact.Intern(bytes.Repeat([]byte("initrd"), 4096)).Bytes()
	const cmdline = "console=ttyS0 reboot=k panic=1 pci=off nomodules"
	want := HashComponents(kernel, initrd, cmdline)
	var got ComponentHashes
	if allocs := testing.AllocsPerRun(100, func() { got = HashComponents(kernel, initrd, cmdline) }); allocs > 1 {
		t.Fatalf("HashComponents allocated %v times per call, want at most 1", allocs)
	}
	if got != want {
		t.Fatal("HashComponents changed its answer between calls")
	}
}

// TestFoldRegionsOnSharedInputsAllocatesTwice: folding a plan whose
// regions all point at memoized bytes (the interned verifier and the
// plan's staging blob) allocates only the region metadata and content
// hashes FoldDigest folds.
func TestFoldRegionsOnSharedInputsAllocatesTwice(t *testing.T) {
	cfg := sampleConfig()
	regions, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := psp.InitialDigest(cfg.Policy, cfg.Level)
	want := FoldRegions(initial, regions)
	var got [32]byte
	if allocs := testing.AllocsPerRun(100, func() { got = FoldRegions(initial, regions) }); allocs > 2 {
		t.Fatalf("FoldRegions allocated %v times per call, want at most 2", allocs)
	}
	if got != want {
		t.Fatal("FoldRegions changed its answer between calls")
	}
}
