package lz4

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	block := CompressBlock(src)
	got, err := DecompressBlock(block, len(src))
	if err != nil {
		t.Fatalf("decompress: %v (src len %d, block len %d)", err, len(src), len(block))
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: src %d bytes, got %d bytes", len(src), len(got))
	}
	return block
}

func TestRoundTripEmpty(t *testing.T) { roundTrip(t, nil) }

func TestRoundTripTiny(t *testing.T) {
	for n := 1; n <= 16; n++ {
		src := bytes.Repeat([]byte{'x'}, n)
		roundTrip(t, src)
	}
}

func TestRoundTripAllByteValues(t *testing.T) {
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	roundTrip(t, src)
}

func TestCompressibleTextShrinks(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 500))
	block := roundTrip(t, src)
	if len(block) >= len(src)/4 {
		t.Fatalf("repetitive text compressed to %d/%d bytes; expected < 25%%", len(block), len(src))
	}
}

func TestRunLengthEncodesOverlappingMatch(t *testing.T) {
	// A long run of one byte exercises the overlapping-match (offset 1)
	// copy in the decoder.
	src := bytes.Repeat([]byte{0xAB}, 100000)
	block := roundTrip(t, src)
	if len(block) > 500 {
		t.Fatalf("100k run compressed to %d bytes; RLE should be tiny", len(block))
	}
}

func TestIncompressibleRandomBoundedExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := make([]byte, 1<<20)
	rng.Read(src)
	block := roundTrip(t, src)
	maxExpansion := len(src) + len(src)/255 + 16
	if len(block) > maxExpansion {
		t.Fatalf("incompressible input expanded to %d bytes, bound %d", len(block), maxExpansion)
	}
}

func TestRoundTripMixedContent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var src []byte
	for i := 0; i < 200; i++ {
		switch i % 3 {
		case 0:
			chunk := make([]byte, rng.Intn(400))
			rng.Read(chunk)
			src = append(src, chunk...)
		case 1:
			src = append(src, bytes.Repeat([]byte{byte(i)}, rng.Intn(400))...)
		case 2:
			src = append(src, []byte("push rbp; mov rbp, rsp; sub rsp, 0x20; ")...)
		}
	}
	roundTrip(t, src)
}

func TestRoundTripSizeSweep(t *testing.T) {
	// Boundary sizes around the compressor's mfLimit/lastLiterals cutoffs.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 4, 5, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 255, 256, 4095, 4096, 4097} {
		src := make([]byte, n)
		rng.Read(src)
		roundTrip(t, src)
		// Also a compressible variant of the same length.
		for i := range src {
			src[i] = byte(i % 7)
		}
		roundTrip(t, src)
	}
}

func TestQuickRoundTripArbitrary(t *testing.T) {
	f := func(src []byte) bool {
		block := CompressBlock(src)
		got, err := DecompressBlock(block, len(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// lowEntropyRuns is n bytes drawn from a small alphabet, in runs.
func lowEntropyRuns(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	src := make([]byte, n)
	for i := 0; i < len(src); {
		b := byte(r.Intn(8))
		run := 1 + r.Intn(20)
		for j := 0; j < run && i < len(src); j++ {
			src[i] = b
			i++
		}
	}
	return src
}

func TestQuickRoundTripCompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64, n uint16) bool {
		src := lowEntropyRuns(seed, int(n)*4)
		block := CompressBlock(src)
		got, err := DecompressBlock(block, len(src))
		return err == nil && bytes.Equal(got, src)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressRejectsBadOffset(t *testing.T) {
	// token: 1 literal, match len 4; literal 'A'; offset 9 with only 1 byte
	// of output so far.
	bad := []byte{0x10, 'A', 9, 0}
	if _, err := DecompressBlock(bad, 10); err == nil {
		t.Fatal("offset beyond output start accepted")
	}
}

func TestDecompressRejectsZeroOffset(t *testing.T) {
	bad := []byte{0x10, 'A', 0, 0}
	if _, err := DecompressBlock(bad, 10); err == nil {
		t.Fatal("zero offset accepted")
	}
}

func TestDecompressRejectsTruncatedLiterals(t *testing.T) {
	bad := []byte{0xF0, 10} // promises 25 literals, provides none
	if _, err := DecompressBlock(bad, 100); err == nil {
		t.Fatal("truncated literals accepted")
	}
}

func TestDecompressRejectsTruncatedOffset(t *testing.T) {
	bad := []byte{0x14, 'A', 5} // 1 literal then match, but only 1 offset byte
	if _, err := DecompressBlock(bad, 100); err == nil {
		t.Fatal("truncated offset accepted")
	}
}

func TestDecompressRejectsOutputOverrun(t *testing.T) {
	src := bytes.Repeat([]byte("abcd1234"), 100)
	block := CompressBlock(src)
	if _, err := DecompressBlock(block, len(src)-1); err == nil {
		t.Fatal("undersized destination accepted")
	}
}

func TestDecompressRejectsShortOutput(t *testing.T) {
	src := []byte("hello world")
	block := CompressBlock(src)
	if _, err := DecompressBlock(block, len(src)+1); err == nil {
		t.Fatal("oversized destination accepted (output underrun)")
	}
}

func TestDecompressRejectsTruncatedLengthExtension(t *testing.T) {
	bad := []byte{0xF0, 255, 255} // literal length extension never terminates
	if _, err := DecompressBlock(bad, 2000); err == nil {
		t.Fatal("unterminated length extension accepted")
	}
}

func TestDecompressArbitraryGarbageNeverPanics(t *testing.T) {
	f := func(junk []byte, size uint16) bool {
		_, _ = DecompressBlock(junk, int(size)) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// decompress and frameInfo read the frame Compress writes; only the
// tests read it.

// decompress unwraps a frame produced by Compress.
func decompress(src []byte) ([]byte, error) {
	block, size, err := frameInfo(src)
	if err != nil {
		return nil, err
	}
	return DecompressBlock(block, size)
}

// frameInfo validates a frame header and returns the contained block and
// the uncompressed size without decompressing.
func frameInfo(src []byte) (block []byte, uncompressedSize int, err error) {
	if len(src) < len(frameMagic)+8 {
		return nil, 0, fmt.Errorf("%w: short frame", ErrCorrupt)
	}
	for i, m := range frameMagic {
		if src[i] != m {
			return nil, 0, fmt.Errorf("%w: bad frame magic", ErrCorrupt)
		}
	}
	size := binary.LittleEndian.Uint64(src[len(frameMagic):])
	if size > 1<<40 {
		return nil, 0, fmt.Errorf("%w: implausible uncompressed size %d", ErrCorrupt, size)
	}
	return src[len(frameMagic)+8:], int(size), nil
}

func TestFrameRoundTrip(t *testing.T) {
	src := []byte(strings.Repeat("kernel code segment ", 1000))
	frame := Compress(src)
	got, err := decompress(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("frame round trip mismatch")
	}
}

func TestFrameInfo(t *testing.T) {
	src := make([]byte, 12345)
	frame := Compress(src)
	block, size, err := frameInfo(frame)
	if err != nil {
		t.Fatal(err)
	}
	if size != len(src) {
		t.Fatalf("size = %d, want %d", size, len(src))
	}
	if len(block) >= len(frame) {
		t.Fatal("block should exclude header")
	}
}

func TestFrameRejectsBadMagic(t *testing.T) {
	frame := Compress([]byte("data"))
	frame[0] ^= 0xFF
	if _, err := decompress(frame); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFrameRejectsShort(t *testing.T) {
	if _, err := decompress([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestFrameRejectsImplausibleSize(t *testing.T) {
	frame := Compress([]byte("data"))
	for i := 0; i < 8; i++ {
		frame[len(frameMagic)+i] = 0xFF
	}
	if _, err := decompress(frame); err == nil {
		t.Fatal("implausible size accepted")
	}
}

func TestCompressionRatioOnKernelLikeData(t *testing.T) {
	// Kernel images mix machine code (moderately compressible), tables
	// (highly compressible), and compressed-ish data sections. Emulate the
	// mix and require a plausible overall ratio (2x-10x).
	src := kernelLikeMix(4 << 20)
	block := CompressBlock(src)
	ratio := float64(len(src)) / float64(len(block))
	if ratio < 2 || ratio > 30 {
		t.Fatalf("kernel-like ratio %.2f outside plausible window", ratio)
	}
}

func BenchmarkCompress4MiB(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dict := make([][]byte, 64)
	for i := range dict {
		w := make([]byte, 16)
		rng.Read(w)
		dict[i] = w
	}
	var src []byte
	for len(src) < 4<<20 {
		src = append(src, dict[rng.Intn(len(dict))]...)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompressBlock(src)
	}
}

// blockMix is n bytes laid out the way internal/kernelgen generates its
// artifacts: a fraction q of 4 KiB blocks random, the rest built from 96
// random 64-byte words. q ≈ 0.18 is a kernel (the Ubuntu preset's q),
// q ≈ 0.69 an attestation initrd.
func blockMix(n int, q float64) []byte {
	rng := rand.New(rand.NewSource(11))
	dict := make([]byte, 96*64)
	rng.Read(dict)
	src := make([]byte, n)
	acc := 0.0
	for b := 0; b < n; b += 4096 {
		block := src[b:min(b+4096, n)]
		if acc += q; acc >= 1 {
			acc--
			rng.Read(block)
			continue
		}
		for i := 0; i < len(block); i += 64 {
			w := rng.Intn(96)
			copy(block[i:], dict[w*64:(w+1)*64])
		}
	}
	return src
}

// mixes are the two inputs the compressor benchmarks run on.
var mixes = []struct {
	name string
	q    float64
}{{"kernel", 0.18}, {"initrd", 0.69}}

var sinkLen int

// BenchmarkCompressBlock is the emitting parse: what bzimage.Build runs on
// a kernel.
func BenchmarkCompressBlock(b *testing.B) {
	for _, m := range mixes {
		src := blockMix(4<<20, m.q)
		dst := make([]byte, 0, maxCompressedLen(len(src)))
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				sinkLen = len(CompressBlockAppend(dst[:0], src))
			}
		})
	}
}

// BenchmarkCompressedLen is the counting parse: what kernelgen's
// calibration search runs on every round.
func BenchmarkCompressedLen(b *testing.B) {
	for _, m := range mixes {
		src := blockMix(4<<20, m.q)
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				sinkLen = CompressedLen(src)
			}
		})
	}
}

func BenchmarkDecompress4MiB(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dict := make([][]byte, 64)
	for i := range dict {
		w := make([]byte, 16)
		rng.Read(w)
		dict[i] = w
	}
	var src []byte
	for len(src) < 4<<20 {
		src = append(src, dict[rng.Intn(len(dict))]...)
	}
	block := CompressBlock(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressBlock(block, len(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecompressAllocsOnce: the frame decoder must preallocate the output
// from the content-size hint — one allocation for the result, no
// append-growth copies on multi-MiB payloads.
func TestDecompressAllocsOnce(t *testing.T) {
	src := bytes.Repeat([]byte("multi-megabyte payload "), 1<<17) // ~2.9 MiB
	frame := Compress(src)
	allocs := testing.AllocsPerRun(5, func() {
		out, err := decompress(frame)
		if err != nil || len(out) != len(src) {
			t.Fatalf("len %d err %v", len(out), err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Decompress allocated %v times per run, want 1", allocs)
	}
}

// TestDecompressBlockIntoReusesBuffer: the into-buffer API must not
// allocate at all.
func TestDecompressBlockIntoReusesBuffer(t *testing.T) {
	src := bytes.Repeat([]byte("reusable "), 1<<15)
	block := CompressBlock(src)
	dst := make([]byte, len(src))
	allocs := testing.AllocsPerRun(5, func() {
		if err := DecompressBlockInto(dst, block); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecompressBlockInto allocated %v times per run, want 0", allocs)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("round trip mismatch")
	}
}

// TestCompressedLenAllocatesNothing: once a match table has been lent, a
// count over a 512 KiB initrd-like mix takes it again instead of
// allocating its own.
func TestCompressedLenAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop tables at random")
	}
	src := blockMix(512<<10, 0.69)
	if allocs := testing.AllocsPerRun(10, func() { sinkLen = CompressedLen(src) }); allocs != 0 {
		t.Fatalf("CompressedLen allocated %v times per run, want 0", allocs)
	}
}

// compressBlockReference is the compressor as it was before the match loop
// compared a word at a time: the same table, the same greedy choice, one
// byte per step. CompressBlockAppend must produce its output byte for byte.
func compressBlockReference(src []byte) []byte {
	if len(src) == 0 {
		return []byte{0}
	}
	if len(src) < mfLimit+1 {
		return appendLiterals(nil, src)
	}
	var table [1 << hashLog]int32
	for i := range table {
		table[i] = -1
	}
	var dst []byte
	anchor, s := 0, 0
	limit := len(src) - mfLimit
	matchLimit := len(src) - lastLiterals
	for s < limit {
		h := hash4(load32(src, s))
		ref := int(table[h])
		table[h] = int32(s)
		if ref < 0 || s-ref > maxOffset || load32(src, ref) != load32(src, s) {
			s++
			continue
		}
		for s > anchor && ref > 0 && src[s-1] == src[ref-1] {
			s--
			ref--
		}
		matchLen := minMatch
		for s+matchLen < matchLimit && src[s+matchLen] == src[ref+matchLen] {
			matchLen++
		}
		dst = appendSequence(dst, src[anchor:s], s-ref, matchLen)
		s += matchLen
		anchor = s
		if s < limit {
			table[hash4(load32(src, s-2))] = int32(s - 2)
		}
	}
	return appendLiterals(dst, src[anchor:])
}

// decompressBlockReference is the block decoder as it was before a match
// was copied with copy: the same checks in the same order, the match one
// byte at a time. DecompressBlockInto must produce its output byte for byte
// and fail on exactly the inputs it fails on.
func decompressBlockReference(dst, src []byte) error {
	d, s := 0, 0
	for s < len(src) {
		token := src[s]
		s++
		litLen := int(token >> 4)
		if litLen == 15 {
			n, ns, err := readLenExt(src, s)
			if err != nil {
				return err
			}
			litLen += n
			s = ns
		}
		if litLen > 0 {
			if s+litLen > len(src) || d+litLen > len(dst) {
				return fmt.Errorf("%w: literal run overruns buffer", ErrCorrupt)
			}
			copy(dst[d:], src[s:s+litLen])
			s += litLen
			d += litLen
		}
		if s == len(src) {
			break
		}
		if s+2 > len(src) {
			return fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(src[s]) | int(src[s+1])<<8
		s += 2
		if offset == 0 || offset > d {
			return fmt.Errorf("%w: offset %d at output position %d", ErrCorrupt, offset, d)
		}
		matchLen := int(token&15) + minMatch
		if token&15 == 15 {
			n, ns, err := readLenExt(src, s)
			if err != nil {
				return err
			}
			matchLen += n
			s = ns
		}
		if d+matchLen > len(dst) {
			return fmt.Errorf("%w: match overruns output (%d+%d > %d)", ErrCorrupt, d, matchLen, len(dst))
		}
		ref := d - offset
		for i := 0; i < matchLen; i++ {
			dst[d+i] = dst[ref+i]
		}
		d += matchLen
	}
	if d != len(dst) {
		return fmt.Errorf("%w: decoded %d bytes, expected %d", ErrCorrupt, d, len(dst))
	}
	return nil
}

// decodesAsReference fails the test unless DecompressBlockInto and the
// byte-at-a-time reference agree on src into dstSize bytes: both refuse it,
// or both accept it and write the same bytes.
func decodesAsReference(t *testing.T, what string, src []byte, dstSize int) {
	t.Helper()
	got, want := make([]byte, dstSize), make([]byte, dstSize)
	gotErr, wantErr := DecompressBlockInto(got, src), decompressBlockReference(want, src)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: decoded bytes differ from the reference's", what)
	}
}

// TestDecompressMatchesByteWiseReference holds the copy-based match to the
// byte-at-a-time one over every overlap a short period makes: one literal
// run of offset bytes, then a match of each length 4..80 at that offset,
// into a buffer of the right size, one byte short and one byte long.
func TestDecompressMatchesByteWiseReference(t *testing.T) {
	for offset := 1; offset <= 16; offset++ {
		for matchLen := minMatch; matchLen <= 80; matchLen++ {
			src := appendSequence(nil, []byte("0123456789abcdef")[:offset], offset, matchLen)
			src = appendLiterals(src, []byte("tail"))
			n := offset + matchLen + 4
			for _, size := range []int{n, n - 1, n + 1} {
				decodesAsReference(t, fmt.Sprintf("offset %d, match %d, into %d", offset, matchLen, size), src, size)
			}
		}
	}
	for _, src := range [][]byte{kernelLikeMix(1 << 20), lowEntropyRuns(5, 1<<16), bytes.Repeat([]byte{0xAB}, 100000)} {
		decodesAsReference(t, fmt.Sprintf("%d compressed bytes", len(src)), CompressBlock(src), len(src))
	}
}

// sameAsReference fails the test unless the word-at-a-time compressor and
// the reference agree on src, and the count-only parse agrees with both on
// the block's length.
func sameAsReference(t *testing.T, what string, src []byte) {
	t.Helper()
	got, want := CompressBlock(src), compressBlockReference(src)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s (%d bytes): compressed to %d bytes, reference %d, or same length and different bytes", what, len(src), len(got), len(want))
	}
	if n := CompressedLen(src); n != len(want) {
		t.Fatalf("%s (%d bytes): CompressedLen %d, reference block %d bytes", what, len(src), n, len(want))
	}
}

// kernelLikeMix emulates a kernel image: machine code (moderately
// compressible), tables (highly compressible) and compressed-ish data
// sections.
func kernelLikeMix(n int) []byte {
	rng := rand.New(rand.NewSource(1234))
	var src []byte
	dict := make([][]byte, 64)
	for i := range dict {
		w := make([]byte, 8+rng.Intn(24))
		rng.Read(w)
		dict[i] = w
	}
	for len(src) < n {
		src = append(src, dict[rng.Intn(len(dict))]...)
	}
	return src
}

// TestCompressMatchesByteWiseReference holds the word-at-a-time match
// extension to the byte-at-a-time one over everything the round-trip tests
// compress, plus the cases that distinguish the two: matches that end
// within two words of matchLimit, and matches that overlap their own source.
func TestCompressMatchesByteWiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 4, 5, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 255, 256, 4095, 4096, 4097} {
		src := make([]byte, n)
		rng.Read(src)
		sameAsReference(t, "random", src)
		for i := range src {
			src[i] = byte(i % 7)
		}
		sameAsReference(t, "period 7", src)
	}

	arbitrary := func(src []byte) bool {
		return bytes.Equal(CompressBlock(src), compressBlockReference(src))
	}
	if err := quick.Check(arbitrary, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	compressible := func(seed int64, n uint16) bool {
		src := lowEntropyRuns(seed, int(n)*4)
		return bytes.Equal(CompressBlock(src), compressBlockReference(src))
	}
	if err := quick.Check(compressible, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}

	sameAsReference(t, "kernel-like mix", kernelLikeMix(4<<20))
	// The generator's block mixes, from all dictionary words to all random
	// blocks: stale, empty and in-window table slots in every proportion.
	for _, q := range []float64{0, 0.18, 0.5, 0.69, 1} {
		sameAsReference(t, fmt.Sprintf("block mix q=%v", q), blockMix(1<<20+123, q))
	}

	// A 64-byte phrase, noise, then the phrase again, cut so that the match
	// stops 0..16 bytes short of matchLimit or runs straight into it, with
	// and without a differing byte just before the cut.
	phrase := make([]byte, 64)
	rng.Read(phrase)
	noise := make([]byte, 100)
	rng.Read(noise)
	for tail := 0; tail <= 16+lastLiterals; tail++ {
		for _, diverge := range []bool{false, true} {
			src := append(append(append([]byte(nil), phrase...), noise...), phrase...)
			src = src[:len(src)-tail]
			if diverge {
				src[len(src)-lastLiterals-1] ^= 0xFF
			}
			sameAsReference(t, fmt.Sprintf("second phrase cut %d short, diverge %v", tail, diverge), src)
		}
	}
	for gap := 0; gap <= 16; gap++ {
		// The match ends on its own, gap bytes before matchLimit.
		src := append(append(append([]byte(nil), phrase...), noise...), phrase[:40]...)
		src = append(src, noise[:gap+lastLiterals]...)
		sameAsReference(t, fmt.Sprintf("match ending %d bytes before matchLimit", gap), src)
	}

	// Overlapping matches: periods shorter than a word, equal to one, and
	// just over, each also with a byte that breaks the run mid-word.
	for _, period := range []int{1, 2, 3, 5, 7, 8, 9, 13} {
		for _, n := range []int{40, 41, 47, 48, 100, 1000, 70000} {
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(i % period)
			}
			sameAsReference(t, fmt.Sprintf("period %d", period), src)
			src[n*2/3] ^= 0x55
			sameAsReference(t, fmt.Sprintf("period %d, broken", period), src)
		}
	}
}
