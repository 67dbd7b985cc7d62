package ovmf

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/telemetry"
	"github.com/severifast/severifast/internal/verifier"
)

func TestVolumeSizeIsPaperMinimum(t *testing.T) {
	if CodeSize != 1<<20 {
		t.Fatalf("OVMF code %d bytes; paper §3.1 says the smallest build is 1 MiB", CodeSize)
	}
	if len(Volume(1)) != CodeSize {
		t.Fatal("volume size mismatch")
	}
	if len(VarStore(1)) != VarStoreSize {
		t.Fatal("varstore size mismatch")
	}
}

func TestVolumeDeterministic(t *testing.T) {
	if !bytes.Equal(Volume(1), Volume(1)) {
		t.Fatal("OVMF volume not deterministic; it is measured")
	}
	if bytes.Equal(Volume(1), Volume(2)) {
		t.Fatal("different seeds gave the same volume")
	}
}

func TestPlanRegionsSNP(t *testing.T) {
	h := measure.HashComponents([]byte("k"), []byte("i"), "c")
	regions := PlanRegions(1, sev.SNP, h)
	names := map[string]int{}
	total := 0
	for _, r := range regions {
		names[r.Name] = len(r.Data)
		total += len(r.Data)
	}
	for _, want := range []string{"ovmf-code", "ovmf-vars", "hashes", "secrets", "cpuid", "vmsa"} {
		if _, ok := names[want]; !ok {
			t.Errorf("plan missing %q", want)
		}
	}
	// >1.1 MiB pre-encrypted: the whole Fig. 10 story.
	if total < (1<<20)+(128<<10) {
		t.Fatalf("plan only measures %d bytes", total)
	}
}

func TestPlanRegionsBaseSEVOmitsSNPPages(t *testing.T) {
	h := measure.HashComponents([]byte("k"), []byte("i"), "c")
	pol := map[string]bool{}
	for _, r := range PlanRegions(1, sev.SEV, h) {
		pol[r.Name] = true
	}
	if pol["secrets"] || pol["cpuid"] {
		t.Fatal("base SEV must not measure SNP secrets/cpuid pages")
	}
	if pol["vmsa"] {
		t.Fatal("base SEV must not measure a VMSA")
	}
	for _, r := range PlanRegions(1, sev.ES, h) {
		pol[r.Name+"|es"] = true
	}
	if !pol["vmsa|es"] {
		t.Fatal("SEV-ES must measure the VMSA")
	}
}

func TestPlanRegionsDoNotOverlap(t *testing.T) {
	h := measure.HashComponents([]byte("k"), []byte("i"), "c")
	regions := PlanRegions(1, sev.SNP, h)
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			aEnd := a.GPA + uint64(len(a.Data))
			bEnd := b.GPA + uint64(len(b.Data))
			if a.GPA < bEnd && b.GPA < aEnd {
				t.Errorf("overlap: %s vs %s", a.Name, b.Name)
			}
		}
	}
	// The firmware must fit in a 256 MiB guest.
	for _, r := range regions {
		if r.GPA+uint64(len(r.Data)) > 256<<20 {
			t.Errorf("%s beyond guest memory", r.Name)
		}
	}
}

func TestHashPageMatchesSEVeriFastFormat(t *testing.T) {
	// OVMF's measured direct boot uses the same hash-page layout the
	// SEVeriFast verifier parses.
	h := measure.HashComponents([]byte("kernel"), []byte("initrd"), "cmd")
	for _, r := range PlanRegions(1, sev.SNP, h) {
		if r.Name != "hashes" {
			continue
		}
		got, err := measure.ParseHashPage(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatal("hash page round trip mismatch")
		}
		return
	}
	t.Fatal("no hashes region")
}

// hashedBytes is how many bytes the artifact layer has fed SHA-256.
func hashedBytes() int64 {
	_, counters := telemetry.DefaultHostRecorder.Snapshot()
	return counters["artifact.digest.bytes_hashed"]
}

// TestGeneratedInputsAreBuiltOnce: a second verifier image, firmware
// volume or varstore of one seed returns the first call's array and
// generates nothing; each comes interned, page-padded, with the digest of
// its bytes memoized.
func TestGeneratedInputsAreBuiltOnce(t *testing.T) {
	for name, get := range map[string]func() []byte{
		"verifier.Image": func() []byte { return verifier.Image(3) },
		"Volume":         func() []byte { return Volume(3) },
		"VarStore":       func() []byte { return VarStore(3) },
	} {
		first := get()
		var second []byte
		if allocs := testing.AllocsPerRun(5, func() { second = get() }); allocs != 0 {
			t.Errorf("%s: a second call allocated %v times: it generated the bytes again", name, allocs)
		}
		if &second[0] != &first[0] || len(second) != len(first) {
			t.Errorf("%s: a second call returned another array", name)
		}
		buf := artifact.Lookup(first[:cap(first)])
		if buf == nil || cap(first)%4096 != 0 {
			t.Fatalf("%s: not interned page-padded (cap %d)", name, cap(first))
		}
		before := hashedBytes()
		if buf.RangeDigest(0, len(first)) != sha256.Sum256(first) {
			t.Errorf("%s: the memoized digest is not the bytes' SHA-256", name)
		}
		if n := hashedBytes() - before; n != 0 {
			t.Errorf("%s: its digest hashed %d bytes, want a memo hit", name, n)
		}
	}
}

// TestPlanForNewHashesBuildsNoFirmware: a plan for component hashes no
// plan had before points at the shared firmware bytes, so building and
// folding it feeds SHA-256 only its own pages (at most 16 KiB) and
// allocates nothing the size of a firmware part.
func TestPlanForNewHashesBuildsNoFirmware(t *testing.T) {
	PlanRegions(1, sev.SNP, measure.HashComponents([]byte("k"), []byte("i"), "c"))
	h := measure.HashComponents([]byte("kernel"), []byte(t.Name()), "cmd")
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	before := hashedBytes()
	regions := PlanRegions(1, sev.SNP, h)
	measure.FoldRegions([32]byte{}, regions)
	hashed := hashedBytes() - before
	runtime.ReadMemStats(&m1)
	if hashed > 16<<10 {
		t.Errorf("a new plan fed SHA-256 %d bytes, want at most its own 16 KiB", hashed)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= VarStoreSize {
		t.Errorf("a new plan allocated %d bytes, a firmware part's worth", alloc)
	}
	for _, r := range regions {
		if r.Name == "ovmf-code" && r.Art != artifact.Lookup(Volume(1)) {
			t.Error("the plan's firmware volume is not the shared one")
		}
	}
}
