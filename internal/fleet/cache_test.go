package fleet

import (
	"crypto/sha256"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/verifier"
)

func testSpec(seed byte) ImageSpec {
	kernel := make([]byte, 8192)
	initrd := make([]byte, 4096)
	for i := range kernel {
		kernel[i] = byte(i) ^ seed
	}
	for i := range initrd {
		initrd[i] = byte(i*3) ^ seed
	}
	return ImageSpec{
		Kernel:       kernel,
		Initrd:       initrd,
		Cmdline:      "console=ttyS0",
		VCPUs:        1,
		MemSize:      64 << 20,
		Level:        sev.SNP,
		Policy:       firecracker.LaunchPolicy(sev.SNP, false),
		VerifierSeed: 1,
	}
}

func TestKeyOfIsContentAddressed(t *testing.T) {
	base := testSpec(0)
	k0, h0 := KeyOf(base)
	k1, h1 := KeyOf(testSpec(0))
	if k0 != k1 || h0 != h1 {
		t.Fatal("identical specs produced different keys")
	}

	mutations := map[string]func(*ImageSpec){
		"kernel":  func(s *ImageSpec) { s.Kernel = append([]byte{0xFF}, s.Kernel...) },
		"initrd":  func(s *ImageSpec) { s.Initrd = append([]byte{0xFF}, s.Initrd...) },
		"cmdline": func(s *ImageSpec) { s.Cmdline += " quiet" },
		"vcpus":   func(s *ImageSpec) { s.VCPUs = 4 },
		"memsize": func(s *ImageSpec) { s.MemSize *= 2 },
		"level":   func(s *ImageSpec) { s.Level = sev.ES },
		"policy":  func(s *ImageSpec) { s.Policy.NoKeySharing = false },
		"seed":    func(s *ImageSpec) { s.VerifierSeed = 7 },
		"ptables": func(s *ImageSpec) { s.PreEncryptPageTables = true },
	}
	for name, mutate := range mutations {
		s := testSpec(0)
		mutate(&s)
		if k, _ := KeyOf(s); k == k0 {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

// TestKeyOfSeesACorruptedInitrd: a generated initrd leaves kernelgen with
// its digest memoized, and Corrupt drops the memo, so the next KeyOf hashes
// the tampered bytes and keys the image apart.
func TestKeyOfSeesACorruptedInitrd(t *testing.T) {
	spec := testSpec(0)
	spec.Initrd = kernelgen.BuildInitrd(11, 64<<10)
	k0, h0 := KeyOf(spec)
	buf := artifact.Lookup(spec.Initrd)
	buf.Corrupt(len(spec.Initrd)/2, 0x01)
	defer buf.Corrupt(len(spec.Initrd)/2, 0x01) // BuildInitrd hands every caller these bytes
	k1, h1 := KeyOf(spec)
	if h1.Initrd != sha256.Sum256(spec.Initrd) || h1.Initrd == h0.Initrd || k1 == k0 {
		t.Fatal("KeyOf after Corrupt answered the memo of the untampered initrd")
	}
}

func TestCacheCounters(t *testing.T) {
	c := NewCache()
	spec := testSpec(0)
	key, hashes := KeyOf(spec)

	if mi := c.Get(key); mi != nil {
		t.Fatal("hit on empty cache")
	}
	mi, err := c.Plan(key, hashes, spec)
	if err != nil {
		t.Fatal(err)
	}
	if mi2 := c.Get(key); mi2 != mi {
		t.Fatal("Get after Plan did not return the published entry")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Plans != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 plan, 1 entry", s)
	}
	if want := uint64(len(spec.Kernel) + len(spec.Initrd)); s.HashedBytes != want {
		t.Fatalf("HashedBytes = %d, want %d", s.HashedBytes, want)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", got)
	}
}

func TestCacheFirstWriterWins(t *testing.T) {
	c := NewCache()
	spec := testSpec(0)
	key, hashes := KeyOf(spec)
	a, err := c.Plan(key, hashes, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Plan(key, hashes, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Plan of same key did not return the first entry")
	}
	if s := c.Stats(); s.Plans != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 plans collapsing to 1 entry", s)
	}
}

// TestCacheDigestMatchesMeasure pins the cache's inline digest fold to
// measure.ExpectedDigest: the cache must predict exactly what the PSP will
// measure, or attestation against cached artifacts breaks.
func TestCacheDigestMatchesMeasure(t *testing.T) {
	for _, seed := range []byte{0, 1, 2} {
		spec := testSpec(seed)
		key, hashes := KeyOf(spec)
		mi, err := NewCache().Plan(key, hashes, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := measure.ExpectedDigest(measure.Config{
			Verifier:             verifier.Image(spec.VerifierSeed),
			Hashes:               mi.Hashes,
			Cmdline:              spec.Cmdline,
			VCPUs:                spec.VCPUs,
			MemSize:              spec.MemSize,
			Level:                spec.Level,
			Policy:               spec.Policy,
			PreEncryptPageTables: spec.PreEncryptPageTables,
		})
		if err != nil {
			t.Fatal(err)
		}
		if mi.Digest != want {
			t.Fatalf("seed %d: cache digest %x != measure.ExpectedDigest %x", seed, mi.Digest[:8], want[:8])
		}
		if mi.PreEncryptedBytes <= 0 {
			t.Fatal("plan claims no pre-encrypted bytes")
		}
	}
}
