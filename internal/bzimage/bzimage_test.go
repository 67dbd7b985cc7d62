package bzimage

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/severifast/severifast/internal/artifact"
)

func sampleVMLinux() []byte {
	// Compressible kernel-ish content.
	return []byte(strings.Repeat("mov rax, qword ptr [rbp-8]; call sha256_update; ", 20000))
}

// extractVMLinux parses the image and decompresses the embedded vmlinux —
// what the bzImage bootstrap loader does in the guest.
func extractVMLinux(b []byte) ([]byte, error) {
	info, err := Parse(b)
	if err != nil {
		return nil, err
	}
	return DecompressPayload(info.Payload)
}

func TestBuildParseLZ4(t *testing.T) {
	vm := sampleVMLinux()
	img, err := Build(vm, CodecLZ4, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if info.Codec != CodecLZ4 {
		t.Fatalf("codec %q, want lz4", info.Codec)
	}
	if info.Uncompressed != len(vm) {
		t.Fatalf("uncompressed %d, want %d", info.Uncompressed, len(vm))
	}
	if info.SetupSects != setupSects {
		t.Fatalf("setup_sects %d", info.SetupSects)
	}
	if len(img) != Overhead()+len(info.Payload) {
		t.Fatalf("image size %d != overhead %d + payload %d", len(img), Overhead(), len(info.Payload))
	}
}

func TestExtractRoundTrip(t *testing.T) {
	vm := sampleVMLinux()
	for _, codec := range []Codec{CodecNone, CodecLZ4, CodecGzip} {
		img, err := Build(vm, codec, 1)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		got, err := extractVMLinux(img)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if !bytes.Equal(got, vm) {
			t.Fatalf("%s: extracted vmlinux differs", codec)
		}
	}
}

func TestCompressionShrinksImage(t *testing.T) {
	vm := sampleVMLinux()
	raw, _ := Build(vm, CodecNone, 1)
	lz, _ := Build(vm, CodecLZ4, 1)
	gz, _ := Build(vm, CodecGzip, 1)
	if len(lz) >= len(raw) || len(gz) >= len(raw) {
		t.Fatalf("compressed images not smaller: raw %d lz4 %d gzip %d", len(raw), len(lz), len(gz))
	}
}

func TestDeterministicBuild(t *testing.T) {
	vm := sampleVMLinux()
	a, _ := Build(vm, CodecLZ4, 7)
	b, _ := Build(vm, CodecLZ4, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different images; bzImage hashes must be reproducible")
	}
	c, _ := Build(vm, CodecLZ4, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical setup/stub bytes")
	}
}

func TestParseRejectsMissingBootFlag(t *testing.T) {
	img, _ := Build(sampleVMLinux(), CodecLZ4, 1)
	img[0x1FE] = 0
	if _, err := Parse(img); err == nil {
		t.Fatal("missing boot flag accepted")
	}
}

func TestParseRejectsMissingHdrS(t *testing.T) {
	img, _ := Build(sampleVMLinux(), CodecLZ4, 1)
	img[0x202] = 'X'
	if _, err := Parse(img); err == nil {
		t.Fatal("missing HdrS accepted")
	}
}

func TestParseRejectsShort(t *testing.T) {
	if _, err := Parse(make([]byte, 100)); err == nil {
		t.Fatal("short image accepted")
	}
}

func TestParseRejectsPayloadOverrun(t *testing.T) {
	img, _ := Build(sampleVMLinux(), CodecLZ4, 1)
	// payload_length beyond the file
	img[0x254] = 0xFF
	img[0x255] = 0xFF
	img[0x256] = 0xFF
	img[0x257] = 0x7F
	if _, err := Parse(img); err == nil {
		t.Fatal("payload overrun accepted")
	}
}

func TestExtractDetectsCorruptPayload(t *testing.T) {
	vm := sampleVMLinux()
	img, _ := Build(vm, CodecLZ4, 1)
	// Flip a byte in the middle of the compressed payload.
	img[len(img)-100] ^= 0xFF
	if _, err := extractVMLinux(img); err == nil {
		// LZ4 corruption may occasionally decode to wrong bytes rather
		// than erroring; in that case the bytes must differ.
		got, err2 := extractVMLinux(img)
		if err2 == nil && bytes.Equal(got, vm) {
			t.Fatal("corrupt payload extracted to identical vmlinux")
		}
	}
}

func TestDecompressPayloadRejectsBadContainer(t *testing.T) {
	if _, err := DecompressPayload([]byte("nope")); err == nil {
		t.Fatal("short container accepted")
	}
	bad := append([]byte("SVPL"), 9)
	bad = append(bad, make([]byte, 8)...)
	if _, err := DecompressPayload(bad); err == nil {
		t.Fatal("unknown codec byte accepted")
	}
}

func TestBuildRejectsUnknownCodec(t *testing.T) {
	if _, err := Build([]byte("x"), Codec("zstd"), 1); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestInitSizeCoversVMLinux(t *testing.T) {
	vm := make([]byte, 5<<20)
	rand.New(rand.NewSource(2)).Read(vm)
	img, _ := Build(vm, CodecLZ4, 1)
	info, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if int(info.InitSize) < len(vm) {
		t.Fatalf("init_size %d < vmlinux %d", info.InitSize, len(vm))
	}
	if info.InitSize%0x100000 != 0 {
		t.Fatalf("init_size %#x not MiB-aligned", info.InitSize)
	}
}

func TestIncompressibleVMLinux(t *testing.T) {
	vm := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(vm)
	img, err := Build(vm, CodecLZ4, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := extractVMLinux(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, vm) {
		t.Fatal("round trip of incompressible kernel failed")
	}
}

func TestQuickBuildParseArbitrarySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vm := make([]byte, int(n)+1)
		r.Read(vm)
		img, err := Build(vm, CodecLZ4, seed)
		if err != nil {
			return false
		}
		got, err := extractVMLinux(img)
		return err == nil && bytes.Equal(got, vm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestParseNeverPanicsOnGarbage(t *testing.T) {
	f := func(junk []byte) bool {
		_, _ = Parse(junk)
		_, _ = DecompressPayload(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// corruptingByte returns the first offset into img's compressed data whose
// flip under mask makes a real decode of the payload fail.
func corruptingByte(t *testing.T, img []byte, mask byte) int {
	t.Helper()
	scratch := append([]byte(nil), img...)
	for off := Overhead() + len(payloadMagic) + 1 + 8; off < len(img); off++ {
		scratch[off] ^= mask
		_, err := extractVMLinux(scratch)
		scratch[off] ^= mask
		if err != nil {
			return off
		}
	}
	t.Fatal("no single-byte flip of the payload fails its decode")
	return 0
}

// TestCorruptDropsTheVMLinuxMemo: the vmlinux memoised on an image,
// remembered by its producer or decoded on first use, is never served for
// bytes the image no longer holds. Corrupt on the image itself drops it, so
// the next VMLinuxOf decodes the tampered payload for real and fails; once
// Corrupt is re-applied the image decodes to the vmlinux again.
func TestCorruptDropsTheVMLinuxMemo(t *testing.T) {
	vm := sampleVMLinux()
	for _, remembered := range []bool{true, false} {
		b, err := Build(vm, CodecLZ4, 1)
		if err != nil {
			t.Fatal(err)
		}
		const mask = 0x80
		off := corruptingByte(t, b, mask)
		img := artifact.Of(b)
		if remembered {
			Remember(img, artifact.Of(vm))
		}
		load := func() ([]byte, error) {
			v, codec, err := VMLinuxOf(img, 0, img.Len())
			if err != nil {
				return nil, err
			}
			if codec != CodecLZ4 {
				t.Fatalf("remembered=%v: codec %q, want lz4", remembered, codec)
			}
			return v.Bytes(), nil
		}
		if got, err := load(); err != nil || !bytes.Equal(got, vm) {
			t.Fatalf("remembered=%v: the pristine image loads %d bytes (err %v), want the vmlinux", remembered, len(got), err)
		}
		img.Corrupt(off, mask)
		if _, err := load(); !errors.Is(err, ErrBadPayload) {
			t.Errorf("remembered=%v: a tampered payload loads with err %v, want ErrBadPayload: a stale memo served it", remembered, err)
		}
		img.Corrupt(off, mask)
		if got, err := load(); err != nil || !bytes.Equal(got, vm) {
			t.Errorf("remembered=%v: the restored image loads %d bytes (err %v), want the vmlinux", remembered, len(got), err)
		}
	}
}

// TestVMLinuxOfARange: a bzImage that sits inside a larger buffer is
// decoded from its own range, and memoised per range.
func TestVMLinuxOfARange(t *testing.T) {
	vm := sampleVMLinux()
	b, err := Build(vm, CodecGzip, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := artifact.Of(append(append([]byte("prefix.."), b...), "suffix"...))
	first, codec, err := VMLinuxOf(buf, 8, len(b))
	if err != nil || codec != CodecGzip || !bytes.Equal(first.Bytes(), vm) {
		t.Fatalf("range load: codec %q err %v", codec, err)
	}
	if again, _, _ := VMLinuxOf(buf, 8, len(b)); again != first {
		t.Fatal("a second load of the range decoded again")
	}
	if _, _, err := VMLinuxOf(buf, 0, len(b)); err == nil {
		t.Fatal("a range that is not the image loaded")
	}
}
