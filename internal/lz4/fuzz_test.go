package lz4

import (
	"bytes"
	"testing"
)

// FuzzDecompressBlock feeds hostile token streams to the block decoder.
// The decoder must never panic or over-allocate: it either produces
// exactly dstSize bytes or returns an error, and it accepts, refuses and
// writes exactly what the byte-at-a-time reference does.
func FuzzDecompressBlock(f *testing.F) {
	f.Add([]byte{}, 16)
	f.Add([]byte{0x00}, 0)
	f.Add(CompressBlock([]byte("hello hello hello hello")), 23)
	f.Add(CompressBlock(bytes.Repeat([]byte{0xAA}, 4096)), 4096)
	f.Add(CompressBlock(bytes.Repeat([]byte("abc"), 100)), 300) // a match overlapping itself at offset 3
	f.Add([]byte{0xF0, 0xFF, 0xFF, 0xFF}, 64)                   // runaway literal length extension
	f.Add([]byte{0x10, 'x', 0x00, 0x00}, 32)                    // zero match offset
	f.Fuzz(func(t *testing.T, src []byte, dstSize int) {
		if dstSize < 0 || dstSize > 1<<20 {
			return
		}
		out, err := DecompressBlock(src, dstSize)
		if err == nil && len(out) != dstSize {
			t.Fatalf("DecompressBlock returned %d bytes without error, want %d", len(out), dstSize)
		}
		decodesAsReference(t, "fuzz input", src, dstSize)
	})
}

// FuzzDecompress exercises the framed path (frameInfo + block decode) on
// arbitrary input, plus the compress/decompress round trip: whatever we
// compress must decompress back bit for bit.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("LZ4B"))
	f.Add(Compress(nil))
	f.Add(Compress([]byte("the quick brown fox jumps over the lazy dog")))
	f.Add(Compress(bytes.Repeat([]byte("abcd"), 1000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes as a frame: must not panic; errors are fine.
		if out, err := decompress(data); err == nil {
			// A frame that decodes must re-encode to a decodable frame of
			// the same content.
			again, err := decompress(Compress(out))
			if err != nil {
				t.Fatalf("re-compress of valid frame failed: %v", err)
			}
			if !bytes.Equal(again, out) {
				t.Fatal("re-compressed frame decodes to different bytes")
			}
		}
		// Bytes as plain content: the round trip must be exact.
		if len(data) <= 1<<20 {
			out, err := decompress(Compress(data))
			if err != nil {
				t.Fatalf("round trip failed: %v", err)
			}
			if !bytes.Equal(out, data) {
				t.Fatal("round trip mismatch")
			}
		}
	})
}

// FuzzCompressBlock holds the compressor, and CompressedLen's count, to the
// byte-at-a-time reference (compressBlockReference) and to the round trip,
// on the decoder fuzzers' corpus read as plain content and on what that
// corpus was compressed from.
func FuzzCompressBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello hello hello hello"))
	f.Add(bytes.Repeat([]byte{0xAA}, 4096))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add(bytes.Repeat([]byte("abcd"), 1000))
	f.Add(CompressBlock(bytes.Repeat([]byte{0xAA}, 4096)))
	f.Add(Compress(bytes.Repeat([]byte("abcd"), 1000)))
	f.Add([]byte{0xF0, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x10, 'x', 0x00, 0x00})
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<20 {
			return
		}
		sameAsReference(t, "fuzz input", src)
		out, err := DecompressBlock(CompressBlock(src), len(src))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(out, src) {
			t.Fatal("round trip mismatch")
		}
	})
}
