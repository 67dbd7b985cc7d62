package kernelgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/cpio"
	"github.com/severifast/severifast/internal/elfx"
	"github.com/severifast/severifast/internal/hostwork"
	"github.com/severifast/severifast/internal/lz4"
	"github.com/severifast/severifast/internal/telemetry"
)

// TestFig8Sizes is the Fig. 8 reproduction at the artifact level: each
// preset's vmlinux and LZ4 bzImage must land on the paper's sizes.
func TestFig8Sizes(t *testing.T) {
	for _, p := range Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			art, err := Cached(p)
			if err != nil {
				t.Fatal(err)
			}
			if rel := relErr(len(art.VMLinux), p.VMLinuxSize); rel > 0.01 {
				t.Errorf("vmlinux %d bytes, target %d (rel %.3f)", len(art.VMLinux), p.VMLinuxSize, rel)
			}
			if rel := relErr(len(art.BzImageLZ4), p.BzImageLZ4Target); rel > p.Tolerance {
				t.Errorf("bzImage %d bytes, target %d (rel %.3f)", len(art.BzImageLZ4), p.BzImageLZ4Target, rel)
			}
		})
	}
}

func TestVMLinuxIsValidELF(t *testing.T) {
	art, err := Cached(Lupine())
	if err != nil {
		t.Fatal(err)
	}
	regions, err := elfx.FileRegions(art.VMLinux)
	if err != nil {
		t.Fatal(err)
	}
	if entry := binary.LittleEndian.Uint64(art.VMLinux[24:]); entry != art.Entry {
		t.Fatalf("e_entry %#x, want %#x", entry, art.Entry)
	}
	loads := 0
	for _, r := range regions {
		if r.Load {
			loads++
		}
	}
	if loads != 3 {
		t.Fatalf("%d PT_LOAD segments, want 3", loads)
	}
}

// TestBzImageExtractsToSameVMLinux: every bzImage Cached hands out — each
// preset's LZ4 image and its gzip image — remembers the vmlinux it was built
// from, that vmlinux is the interned one a vmlinux boot stages, and it is
// byte for byte what a real decode of the payload gives.
func TestBzImageExtractsToSameVMLinux(t *testing.T) {
	for _, p := range Presets() {
		art, err := Cached(p)
		if err != nil {
			t.Fatal(err)
		}
		gz, err := art.BzImageGzip()
		if err != nil {
			t.Fatal(err)
		}
		for codec, img := range map[bzimage.Codec][]byte{bzimage.CodecLZ4: art.BzImageLZ4, bzimage.CodecGzip: gz} {
			buf := artifact.Lookup(img)
			if buf == nil {
				t.Fatalf("%s/%s: Cached did not intern the image", p.Name, codec)
			}
			remembered, gotCodec, err := bzimage.VMLinuxOf(buf, 0, buf.Len())
			if err != nil {
				t.Fatal(err)
			}
			if remembered != artifact.Lookup(art.VMLinux) || gotCodec != codec {
				t.Errorf("%s/%s: the image names %p (%s), want the interned vmlinux %p", p.Name, codec, remembered, gotCodec, artifact.Lookup(art.VMLinux))
			}
			info, err := bzimage.Parse(img)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := bzimage.DecompressPayload(info.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(decoded, remembered.Bytes()) {
				t.Errorf("%s/%s: the payload does not decompress to the vmlinux the image remembers", p.Name, codec)
			}
		}
	}
}

// hashedBytes is how many bytes the artifact layer has hashed in this
// process.
func hashedBytes() int64 {
	_, counters := telemetry.DefaultHostRecorder.Snapshot()
	return counters["artifact.digest.bytes_hashed"]
}

// TestCachedLeavesKernelsMeasured: right after Cached the vmlinux and the
// LZ4 bzImage are interned with their digests memoized, so asking for
// either hashes nothing and answers its SHA-256; a Corrupt drops the memo,
// and the next Digest hashes the changed bytes.
func TestCachedLeavesKernelsMeasured(t *testing.T) {
	art, err := Cached(smallPreset("measured", freshSeed()))
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"vmlinux": art.VMLinux, "bzImage": art.BzImageLZ4} {
		buf := artifact.Lookup(b)
		if buf == nil {
			t.Fatalf("%s: Cached did not intern it", name)
		}
		before := hashedBytes()
		if buf.Digest() != sha256.Sum256(b) {
			t.Fatalf("%s: the memoized digest is not its SHA-256", name)
		}
		if n := hashedBytes() - before; n != 0 {
			t.Fatalf("%s: the first Digest after Cached hashed %d bytes, want a memo hit", name, n)
		}
	}
	buf := artifact.Lookup(art.BzImageLZ4)
	buf.Corrupt(buf.Len()/2, 0x10)
	before := hashedBytes()
	if buf.Digest() != sha256.Sum256(art.BzImageLZ4) {
		t.Fatal("the digest after Corrupt is not the changed bytes' SHA-256")
	}
	if n := hashedBytes() - before; n != int64(buf.Len()) {
		t.Fatalf("the first Digest after Corrupt hashed %d bytes, want the image's %d", n, buf.Len())
	}
}

// TestPresetsSplitAsOnePass: each preset's vmlinux compresses to the same
// block and count at pool width 2, where the compressor parses it in two
// halves, as at width 1, where it parses it in one pass.
func TestPresetsSplitAsOnePass(t *testing.T) {
	if raceDetector {
		t.Skip("four parses of 127 MiB take minutes under the race detector")
	}
	prev := hostwork.SetWorkers(1)
	defer hostwork.SetWorkers(prev)
	for _, p := range Presets() {
		art, err := Cached(p)
		if err != nil {
			t.Fatal(err)
		}
		hostwork.SetWorkers(1)
		block, n := lz4.CompressBlock(art.VMLinux), lz4.CompressedLen(art.VMLinux)
		hostwork.SetWorkers(2)
		if !bytes.Equal(lz4.CompressBlock(art.VMLinux), block) {
			t.Errorf("%s: the block at width 2 differs from the one at width 1", p.Name)
		}
		if got := lz4.CompressedLen(art.VMLinux); got != n {
			t.Errorf("%s: CompressedLen %d at width 2, %d at width 1", p.Name, got, n)
		}
	}
}

// TestBuildDoesNotRemember: a kernel build hands out, which nothing caches,
// is not interned, so it is not pinned for the life of the process.
func TestBuildDoesNotRemember(t *testing.T) {
	art, err := smallPreset("unremembered", freshSeed()).build(false)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := art.BzImageGzip()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{art.VMLinux, art.BzImageLZ4, gz} {
		if artifact.Lookup(b) != nil {
			t.Fatal("build interned a kernel")
		}
	}
}

func TestGzipBiggerThanLZ4ButSmallerThanRaw(t *testing.T) {
	// gzip actually compresses better than LZ4 (that is why Fig. 5's gzip
	// loses on *decompression* time, not size). Verify ordering:
	// gzip <= lz4 < raw.
	art, err := Cached(Lupine())
	if err != nil {
		t.Fatal(err)
	}
	gz, err := art.BzImageGzip()
	if err != nil {
		t.Fatal(err)
	}
	if len(gz) >= len(art.VMLinux) {
		t.Fatal("gzip bzImage not smaller than vmlinux")
	}
	if len(art.BzImageLZ4) >= len(art.VMLinux) {
		t.Fatal("lz4 bzImage not smaller than vmlinux")
	}
}

func TestDeterministicArtifacts(t *testing.T) {
	a, err := Lupine().build(false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lupine().build(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.VMLinux, b.VMLinux) || !bytes.Equal(a.BzImageLZ4, b.BzImageLZ4) {
		t.Fatal("artifacts are not deterministic; launch digests must be reproducible")
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"lupine", "aws", "ubuntu"} {
		p, err := PresetByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("PresetByName(%q) = %v, %v", name, p.Name, err)
		}
	}
	if _, err := PresetByName("debian"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestCmdlineLengthMatchesPaper(t *testing.T) {
	// §4.2: the default Firecracker command line is 155 bytes.
	if n := len(Lupine().Cmdline); n < 140 || n > 170 {
		t.Fatalf("default cmdline %d bytes, want ~155", n)
	}
}

func TestLupineHasNoNetworking(t *testing.T) {
	if Lupine().Networking {
		t.Fatal("lupine-base must not have networking (paper §6.1)")
	}
	if !AWS().Networking || !Ubuntu().Networking {
		t.Fatal("aws/ubuntu must have networking")
	}
}

func TestInitrdParsesAndHasAgent(t *testing.T) {
	initrd := BuildInitrd(1, 1<<20)
	files, err := cpio.Parse(initrd)
	if err != nil {
		t.Fatal(err)
	}
	if cpio.Lookup(files, "init") == nil {
		t.Fatal("initrd missing /init")
	}
	if cpio.Lookup(files, "bin/attest-agent") == nil {
		t.Fatal("initrd missing attestation agent")
	}
	if cpio.Lookup(files, "lib/modules/sev-guest.ko") == nil {
		t.Fatal("initrd missing sev-guest module")
	}
}

func TestInitrdSizeAndCompressibility(t *testing.T) {
	initrd := BuildInitrd(1, DefaultInitrdSize)
	if rel := relErr(len(initrd), DefaultInitrdSize); rel > 0.02 {
		t.Fatalf("initrd %d bytes, target %d", len(initrd), DefaultInitrdSize)
	}
	comp := lz4.CompressBlock(initrd)
	ratio := float64(len(initrd)) / float64(len(comp))
	// Binaries compress poorly: expect ~1.2-1.6x, landing the compressed
	// size near the paper's 12 MiB initrd.
	if ratio < 1.1 || ratio > 1.8 {
		t.Fatalf("initrd compression ratio %.2f outside binary-like window", ratio)
	}
}

func TestGenBinaryDeterministicAndSized(t *testing.T) {
	a := GenBinary(5, 13*1024)
	b := GenBinary(5, 13*1024)
	if !bytes.Equal(a, b) {
		t.Fatal("GenBinary not deterministic")
	}
	if len(a) != 13*1024 {
		t.Fatalf("GenBinary size %d", len(a))
	}
	if bytes.Equal(a, GenBinary(6, 13*1024)) {
		t.Fatal("different seeds produced identical binaries")
	}
}

func TestSizeOrderingAcrossPresets(t *testing.T) {
	lup, err := Cached(Lupine())
	if err != nil {
		t.Fatal(err)
	}
	aws, err := Cached(AWS())
	if err != nil {
		t.Fatal(err)
	}
	ubu, err := Cached(Ubuntu())
	if err != nil {
		t.Fatal(err)
	}
	if !(len(lup.VMLinux) < len(aws.VMLinux) && len(aws.VMLinux) < len(ubu.VMLinux)) {
		t.Fatal("vmlinux sizes not in lupine < aws < ubuntu order")
	}
	if !(len(lup.BzImageLZ4) < len(aws.BzImageLZ4) && len(aws.BzImageLZ4) < len(ubu.BzImageLZ4)) {
		t.Fatal("bzImage sizes not in lupine < aws < ubuntu order")
	}
}

func TestCalibratedBytesHitsTarget(t *testing.T) {
	n := 4 << 20
	for _, frac := range []float64{0.15, 0.3, 0.6} {
		target := int(float64(n) * frac)
		buf := calibratedBytes(nil, 42, n, target)
		got := len(lz4.CompressBlock(buf))
		if rel := relErr(got, target); rel > 0.08 {
			t.Errorf("target ratio %.2f: compressed to %d, want %d (rel %.3f)", frac, got, target, rel)
		}
	}
}

// TestCachedInitrd: the cache returns BuildInitrd's bytes, the same slice
// on a hit, from any goroutine, and never retains more than its fixed
// number of buffers however many seeds pass through it.
func TestCachedInitrd(t *testing.T) {
	const size = 64 << 10
	want := BuildInitrd(3, size)
	first := CachedInitrd(3, size)
	if !bytes.Equal(first, want) {
		t.Fatal("cached initrd differs from BuildInitrd(3, size)")
	}
	if again := CachedInitrd(3, size); &again[0] != &first[0] {
		t.Fatal("second call rebuilt the initrd instead of returning the cached slice")
	}
	if other := CachedInitrd(3, size/2); len(other) == len(first) {
		t.Fatal("size is not part of the cache key")
	}

	// 8 goroutines miss two new keys together: every caller of a key sees
	// one slice, built by one search, although none holds the cache's lock
	// while it builds.
	seeds := [2]int64{freshSeed(), freshSeed()}
	before := calibSearches.Load()
	var wg sync.WaitGroup
	got := make([][]byte, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = CachedInitrd(seeds[i%2], size)
		}(i)
	}
	wg.Wait()
	if n := calibSearches.Load() - before; n != 2 {
		t.Errorf("8 concurrent misses of two keys ran %d searches, want 2", n)
	}
	for i, b := range got {
		if &b[0] != &got[i%2][0] {
			t.Errorf("goroutine %d got its own copy of key %d", i, i%2)
		}
		if !bytes.Equal(b, BuildInitrd(seeds[i%2], size)) {
			t.Errorf("goroutine %d got wrong bytes", i)
		}
	}

	// A sweep of seeds: the retained set stays at its bound, and a seed
	// that fell out is rebuilt, byte-identical.
	for seed := int64(1000); seed < 1020; seed++ {
		CachedInitrd(seed, size)
	}
	retained := 0
	for _, e := range initrdCache.entries {
		if e != nil && e.data != nil {
			retained++
		}
	}
	if retained != len(initrdCache.entries) || retained > 4 {
		t.Fatalf("cache retains %d buffers after a 20-seed sweep, bound %d", retained, len(initrdCache.entries))
	}
	if rebuilt := CachedInitrd(3, size); &rebuilt[0] == &first[0] || !bytes.Equal(rebuilt, want) {
		t.Fatal("an evicted pair must be rebuilt to the same bytes")
	}
}

// TestPinnedCalibrationMatchesSearch is the slow reference for pinnedCalib:
// every preset has a row, nothing else does, and each row is bit for bit
// what the search answers for its key. Whoever changes a preset's sizes,
// bzimage.Overhead or the ELF framing allowance lands here; the failure
// prints the row to commit.
func TestPinnedCalibrationMatchesSearch(t *testing.T) {
	if len(pinnedCalib) != len(Presets()) {
		t.Errorf("pinnedCalib has %d rows for %d presets: a row whose key no preset produces is dead", len(pinnedCalib), len(Presets()))
	}
	for _, p := range Presets() {
		k := p.contentKey()
		_, q := searchCalibratedBytes(nil, k.seed, k.n, k.compTarget)
		row := fmt.Sprintf("{%d, %d, %d}: %x, // %s", k.seed, k.n, k.compTarget, q, p.Name)
		pinned, ok := pinnedCalib[k]
		if !ok {
			t.Errorf("%s has no pinned row; commit\n\t%s", p.Name, row)
		} else if math.Float64bits(pinned) != math.Float64bits(q) {
			t.Errorf("%s is pinned at %x but the search answers otherwise; commit\n\t%s", p.Name, pinned, row)
		}
	}
}

// TestTableAnswersWithoutSearching: the presets never search, and an
// unpinned key searches once per process.
func TestTableAnswersWithoutSearching(t *testing.T) {
	before := calibSearches.Load()
	for _, p := range Presets() {
		if _, err := Cached(p); err != nil {
			t.Fatal(err)
		}
	}
	// Cached may have been warm already; a build of its own may not search
	// either.
	if _, err := Lupine().build(false); err != nil {
		t.Fatal(err)
	}
	if n := calibSearches.Load() - before; n != 0 {
		t.Fatalf("building the presets ran %d calibration searches, want 0: the pinned rows were not consulted", n)
	}

	const size = 256 << 10
	seed := freshSeed()
	first := BuildInitrd(seed, size)
	second := BuildInitrd(seed, size)
	if n := calibSearches.Load() - before; n != 1 {
		t.Fatalf("two BuildInitrd calls with one (seed, size) ran %d searches, want 1", n)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("the remembered answer generated different bytes than the search returned")
	}
}

// TestRememberedBytesEqualSearchedBytes sweeps sizes, seeds and targets:
// what calibratedBytes returns, searching or remembering, is what the search
// returns. At least one key must exhaust all four corrective rounds, where
// the fraction that generated the result and the fraction after the last
// step differ.
func TestRememberedBytesEqualSearchedBytes(t *testing.T) {
	exhausted := 0
	for _, n := range []int{4 << 10, 64 << 10, 1 << 20} {
		for _, seed := range []int64{1, 7, 42} {
			for _, frac := range []float64{0.15, 0.5, 0.75} {
				target := int(float64(n) * frac)
				want, _ := searchCalibratedBytes(nil, seed, n, target)
				before := calibSearches.Load()
				searched := calibratedBytes(nil, seed, n, target)
				remembered := calibratedBytes(nil, seed, n, target)
				if got := calibSearches.Load() - before; got > 1 {
					t.Errorf("n=%d seed=%d target=%d: %d searches for two calls, want at most 1", n, seed, target, got)
				}
				if !bytes.Equal(searched, want) || !bytes.Equal(remembered, want) {
					t.Errorf("n=%d seed=%d target=%d: calibratedBytes differs from the search", n, seed, target)
				}
				// The search only stops early on a result within 1.5 %.
				ratio := float64(len(lz4.CompressBlock(want))) / float64(n)
				if abs(ratio-frac)/frac >= 0.015 {
					exhausted++
				}
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no key in the sweep ran all four corrective rounds")
	}
}

// searchCalibratedBytesReference is searchCalibratedBytes as it was before
// it skipped a midpoint with the mix it last measured: every one of the
// nine sample rounds generates and counts its midpoint's bytes.
func searchCalibratedBytesReference(out []byte, seed int64, n, compTarget int) ([]byte, float64) {
	sample := min(n/8, 2<<20)
	if sample < 64<<10 {
		sample = n
	}
	targetRatio := float64(compTarget) / float64(n)
	lo, hi := 0.0, 1.0
	for i := 0; i < 9; i++ {
		q := (lo + hi) / 2
		buf := mixBytes(nil, seed, sample, q)
		if float64(lz4.CompressedLen(buf))/float64(len(buf)) < targetRatio {
			lo = q
		} else {
			hi = q
		}
	}
	q := (lo + hi) / 2
	start := len(out)
	var used float64
	for round := 0; round < 4; round++ {
		used = q
		out = mixBytes(out[:start], seed, n, q)
		ratio := float64(lz4.CompressedLen(out[start:])) / float64(n)
		if abs(ratio-targetRatio)/targetRatio < 0.015 {
			break
		}
		q = clamp01(q + (targetRatio-ratio)/0.93)
	}
	return out, used
}

// TestSearchMatchesNineStepBisection holds the search to the reference that
// measures every midpoint, on the initrd's calibration keys (BuildInitrd's
// seed and target) over 16 seeds at three sizes: the same fraction, bit for
// bit, and the same bytes.
func TestSearchMatchesNineStepBisection(t *testing.T) {
	sizes := []int{64 << 10, 512 << 10, 4 << 20}
	if raceDetector {
		sizes = sizes[:2] // the 4 MiB row alone takes tens of seconds
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 16; seed++ {
			s := seed ^ 0x5EED
			got, q := searchCalibratedBytes(nil, s, n, n*3/4)
			want, wantQ := searchCalibratedBytesReference(nil, s, n, n*3/4)
			if math.Float64bits(q) != math.Float64bits(wantQ) || !bytes.Equal(got, want) {
				t.Fatalf("n %d, seed %d: search answers %x, the nine-step bisection %x, or their bytes differ", n, s, q, wantQ)
			}
		}
	}
}

// TestSameMixMeansSameBytes: sameMix says two fractions make the same
// blocks random exactly when mixBytes generates the same bytes at both, over
// neighbouring fractions on the bisection's grid and sizes with and without
// a short last block.
func TestSameMixMeansSameBytes(t *testing.T) {
	same, differ := 0, 0
	for _, n := range []int{64 << 10, 64<<10 + 100} {
		for k := 1; k < 512; k++ {
			q, p := float64(k)/512, float64(k+1)/512
			want := bytes.Equal(mixBytes(nil, 1, n, q), mixBytes(nil, 1, n, p))
			if got := sameMix(n, q, p); got != want {
				t.Fatalf("n %d, q %v, p %v: sameMix %v, bytes equal %v", n, q, p, got, want)
			}
			if want {
				same++
			} else {
				differ++
			}
		}
	}
	if same == 0 || differ == 0 {
		t.Fatalf("%d pairs the same, %d different: the sweep must have both", same, differ)
	}
}

// BenchmarkSearchCalibratedBytes is an unseen initrd's calibration: a
// cluster image's 512 KiB one and a facade's 16 MiB one.
func BenchmarkSearchCalibratedBytes(b *testing.B) {
	for _, n := range []int{512 << 10, 16 << 20} {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			out := make([]byte, 0, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				searchCalibratedBytes(out, int64(i)^0x5EED, n, n*3/4)
			}
		})
	}
}

// seedsTaken counts freshSeed calls.
var seedsTaken atomic.Int64

// freshSeed returns a seed no other test, and no earlier -count iteration
// of the calling test, has generated from.
func freshSeed() int64 { return 0x7ab1e + seedsTaken.Add(1) }

// smallPreset is a preset cheap enough to build many times; it has no
// pinned row, so every Build of it runs one search.
func smallPreset(name string, seed int64) Preset {
	return Preset{Name: name, VMLinuxSize: 1 << 20, BzImageLZ4Target: 256 << 10, Tolerance: 0.08, Seed: seed}
}

// TestCachedKeysOnWhatBuildReads: a preset that shares a name with another
// but not its seed or size gets its own kernels; one that differs only in
// its command line shares them.
func TestCachedKeysOnWhatBuildReads(t *testing.T) {
	lup, err := Cached(Lupine())
	if err != nil {
		t.Fatal(err)
	}
	small, err := Cached(smallPreset("lupine", Lupine().Seed))
	if err != nil {
		t.Fatal(err)
	}
	if small == lup || len(small.VMLinux) > 1<<20 {
		t.Fatalf("a 1 MiB preset named lupine was handed %d bytes of vmlinux", len(small.VMLinux))
	}
	reseeded, err := Cached(smallPreset("lupine", 7))
	if err != nil {
		t.Fatal(err)
	}
	if reseeded == small || bytes.Equal(reseeded.VMLinux, small.VMLinux) {
		t.Fatal("a preset with another seed was handed the first seed's kernel")
	}
	variant := Lupine()
	variant.Cmdline += " img=3"
	if art, err := Cached(variant); err != nil || art != lup {
		t.Fatalf("a command-line variant did not share the preset's kernels (err %v)", err)
	}
}

// TestCachedIsSingleFlight: 8 goroutines that miss together cause one
// Build and see one *Artifacts.
func TestCachedIsSingleFlight(t *testing.T) {
	p := smallPreset("single-flight", freshSeed())
	before := calibSearches.Load()
	var wg sync.WaitGroup
	got := make([]*Artifacts, 8)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Cached(p)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Errorf("caller %d got its own artifacts", i)
		}
	}
	// An unpinned preset searches once per Build.
	if n := calibSearches.Load() - before; n != 1 {
		t.Fatalf("8 concurrent first callers ran %d builds, want 1", n)
	}
}

// TestBzImageGzipIsLazyAndRight: the gzip image is what bzimage.Build makes
// of the vmlinux, is built once however often it is asked for, and a copy
// of the artifacts with another vmlinux is not handed the original's.
func TestBzImageGzipIsLazyAndRight(t *testing.T) {
	p := smallPreset("gzip", 5)
	art, err := p.build(false)
	if err != nil {
		t.Fatal(err)
	}
	if art.gzip.img != nil {
		t.Fatal("Build made the gzip image before anyone asked")
	}
	want, err := bzimage.Build(art.VMLinux, bzimage.CodecGzip, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	first, err := art.BzImageGzip()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatal("BzImageGzip differs from bzimage.Build(VMLinux, gzip, seed)")
	}
	if again, _ := art.BzImageGzip(); &again[0] != &first[0] {
		t.Fatal("second request rebuilt the gzip image")
	}

	evil := *art
	evil.VMLinux = append([]byte(nil), art.VMLinux...)
	evil.VMLinux[len(evil.VMLinux)/2] ^= 1
	wantEvil, err := bzimage.Build(evil.VMLinux, bzimage.CodecGzip, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := evil.BzImageGzip(); err != nil || !bytes.Equal(got, wantEvil) || bytes.Equal(got, first) {
		t.Fatalf("a copy with a tampered vmlinux was handed an image of the original (err %v)", err)
	}
}

// TestArtifactsGenerateInPlace: once the calibration table holds its key,
// an initrd and a vmlinux each allocate their file and little else — the
// content is mixed into the buffer the serializer lays the file out in, not
// generated into one of its own and copied — and the bytes are the same
// either way.
func TestArtifactsGenerateInPlace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := smallPreset("in-place", freshSeed())
	seed := freshSeed()
	for name, build := range map[string]func() []byte{
		"initrd":  func() []byte { return BuildInitrd(seed, 4<<20) },
		"vmlinux": func() []byte { vm, _ := p.buildVMLinux(); return vm },
	} {
		want := build() // searches; the table remembers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := build()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; float64(n) >= 1.1*float64(len(got)) {
			t.Errorf("%s: %d bytes allocated for a %d-byte file, ceiling 1.1x: the content is copied again", name, n, len(got))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the remembered answer generated different bytes than the search", name)
		}
	}
}

// TestKnownGenerationAllocatesOnlySourceAndOutput: a generation whose
// fraction is already known — GenBinary, which verifier.Image runs on every
// measurement, and a remembered calibration key — allocates the random
// source and the bytes it returns, nothing else.
func TestKnownGenerationAllocatesOnlySourceAndOutput(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	seed := freshSeed()
	const n = 13 << 10
	calibratedBytes(nil, seed, n, n/2) // the table remembers the key
	for name, gen := range map[string]func() []byte{
		"GenBinary":       func() []byte { return GenBinary(seed, n) },
		"calibratedBytes": func() []byte { return calibratedBytes(nil, seed, n, n/2) },
	} {
		if allocs := testing.AllocsPerRun(20, func() { gen() }); allocs > 2 {
			t.Errorf("%s: %v allocations per run, want at most 2 (the source and the output)", name, allocs)
		}
	}
}

// mixBytesReference is mixBytes as it was written against math/rand.Rand:
// a dictionary of 96 words Read one at a time, and a 4 KiB block filled by
// Read or by Intn(96) word picks, appended and cut at n. mixBytes must
// produce its bytes exactly.
func mixBytesReference(out []byte, seed int64, n int, q float64) []byte {
	rng := rand.New(rand.NewSource(seed))
	dict := make([][]byte, 96)
	for i := range dict {
		w := make([]byte, 64)
		rng.Read(w)
		dict[i] = w
	}
	block := make([]byte, 4096)
	acc := 0.0
	for end := len(out) + n; len(out) < end; {
		acc += q
		if acc >= 1 {
			acc -= 1
			rng.Read(block)
		} else {
			for b := 0; b < 4096; b += 64 {
				copy(block[b:], dict[rng.Intn(len(dict))])
			}
		}
		out = append(out, block[:min(len(block), end-len(out))]...)
	}
	return out
}

// TestMixBytesMatchesReference holds mixBytes to the math/rand generator
// over seeds, sizes (block multiples, odd tails, shorter than one word) and
// fractions (none random, all random, the three pinned presets' and a few
// between), appended after a prefix it must leave alone.
func TestMixBytesMatchesReference(t *testing.T) {
	qs := []float64{0, 1, 0.35, 0.5, 0.69, 0.999}
	for _, q := range pinnedCalib {
		qs = append(qs, q)
	}
	for _, seed := range []int64{0, 1, -7, 0x5EED ^ 1, 103} {
		for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 4095, 4096, 4097, 13 << 10, 3*4096 + 1234, 64<<10 + 7} {
			for _, q := range qs {
				prefix := []byte("prefix")
				got := mixBytes(append([]byte(nil), prefix...), seed, n, q)
				want := mixBytesReference(append([]byte(nil), prefix...), seed, n, q)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d, n %d, q %x: mixBytes differs from the math/rand reference", seed, n, q)
				}
			}
		}
	}
}

// FuzzMixStream decodes its input into an interleaving of reads (of 0, 1–7,
// 8, 64 and 4096 bytes and odd tails) and Intn(96) draws, and requires
// mixStream to hand out exactly what a math/rand.Rand over the same seed
// does, byte for byte and index for index.
func FuzzMixStream(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(42), []byte{9, 10, 11, 12, 9, 9, 13, 14, 15, 3, 10, 9})
	f.Add(int64(-5), []byte{6, 6, 6, 9, 6, 13, 12, 12, 9, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		want := rand.New(rand.NewSource(seed))
		got := mixStream{src: rand.NewSource(seed)}
		for i, op := range ops {
			if op%16 == 9 {
				if g, w := got.intn96(), want.Intn(96); g != w {
					t.Fatalf("op %d: intn96 %d, Intn(96) %d", i, g, w)
				}
				continue
			}
			var n int
			switch k := int(op % 16); {
			case k <= 8:
				n = k // 0, 1–7 and one whole draw
			case k == 10:
				n = 64
			case k == 11:
				n = 4096
			default: // 12–15: odd tails past whole draws
				n = 7*int(op>>4) + k - 11
			}
			g, w := make([]byte, n), make([]byte, n)
			got.read(g)
			want.Read(w)
			if !bytes.Equal(g, w) {
				t.Fatalf("op %d: read(%d) differs from Rand.Read", i, n)
			}
		}
	})
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestArtifactBytesGolden pins every generated byte: the SHA-256 of each
// preset's vmlinux and both bzImages and of the default attestation initrd.
// Launch digests, results/*.csv and the benchmark's output digests all
// derive from these.
func TestArtifactBytesGolden(t *testing.T) {
	const golden = "testdata/artifact_sha256.golden"
	var got bytes.Buffer
	for _, p := range Presets() {
		art, err := Cached(p)
		if err != nil {
			t.Fatal(err)
		}
		gz, err := art.BzImageGzip()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s vmlinux %x\n", p.Name, sha256.Sum256(art.VMLinux))
		fmt.Fprintf(&got, "%s bzImage.lz4 %x\n", p.Name, sha256.Sum256(art.BzImageLZ4))
		fmt.Fprintf(&got, "%s bzImage.gz %x\n", p.Name, sha256.Sum256(gz))
	}
	fmt.Fprintf(&got, "initrd(1,%d) %x\n", DefaultInitrdSize, sha256.Sum256(BuildInitrd(1, DefaultInitrdSize)))
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("generated artifacts changed:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
