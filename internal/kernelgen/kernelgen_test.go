package kernelgen

import (
	"bytes"
	"sync"
	"testing"

	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/cpio"
	"github.com/severifast/severifast/internal/elfx"
	"github.com/severifast/severifast/internal/lz4"
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
	img, err := elfx.Parse(art.VMLinux)
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != art.Entry {
		t.Fatalf("entry %#x, want %#x", img.Entry, art.Entry)
	}
	loads := 0
	for _, seg := range img.Segments {
		if seg.Type == elfx.PTLoad {
			loads++
		}
	}
	if loads != 3 {
		t.Fatalf("%d PT_LOAD segments, want 3", loads)
	}
}

func TestBzImageExtractsToSameVMLinux(t *testing.T) {
	art, err := Cached(Lupine())
	if err != nil {
		t.Fatal(err)
	}
	got, err := bzimage.ExtractVMLinux(art.BzImageLZ4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, art.VMLinux) {
		t.Fatal("bzImage payload does not decompress to the vmlinux")
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
	if len(art.BzImageGzip) >= len(art.VMLinux) {
		t.Fatal("gzip bzImage not smaller than vmlinux")
	}
	if len(art.BzImageLZ4) >= len(art.VMLinux) {
		t.Fatal("lz4 bzImage not smaller than vmlinux")
	}
}

func TestDeterministicArtifacts(t *testing.T) {
	a, err := Lupine().Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lupine().Build()
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
		buf := calibratedBytes(42, n, target)
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

	// 8 goroutines over two keys: every caller of a key sees one slice.
	var wg sync.WaitGroup
	got := make([][]byte, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = CachedInitrd(int64(100+i%2), size)
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if &b[0] != &got[i%2][0] {
			t.Errorf("goroutine %d got its own copy of key %d", i, i%2)
		}
		if !bytes.Equal(b, BuildInitrd(int64(100+i%2), size)) {
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
		if e.data != nil {
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
