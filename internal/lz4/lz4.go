// Package lz4 is a from-scratch implementation of the LZ4 block format
// (https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md), plus a
// small framed container that carries the uncompressed size.
//
// SEVeriFast's central tradeoff is between measurement cost (per compressed
// byte) and decompression cost (per uncompressed byte), so the reproduction
// needs a real codec with realistic ratios: the synthetic kernels in
// internal/kernelgen are tuned against this compressor to reproduce the
// paper's Fig. 8 bzImage sizes.
//
// An input of 1 MiB or more is parsed by two workers of internal/hostwork
// when the pool has two: one from the start, one from a little before the
// midpoint with a fresh table. The first hands over to the second at a
// match end after which the two parses provably agree (compressSplit says
// why), so the block and CompressedLen are byte for byte the one-pass
// parse's at every pool width.
//
// Only the Go standard library is used.
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"github.com/severifast/severifast/internal/hostwork"
)

const (
	minMatch     = 4  // smallest encodable match
	lastLiterals = 5  // spec: last 5 bytes must be literals
	mfLimit      = 12 // spec: no match may start within 12 bytes of the end
	maxOffset    = 65535

	hashLog   = 16
	hashShift = 32 - hashLog
	hashMul   = 2654435761 // Knuth's multiplicative hash constant
)

// ErrCorrupt is returned by the decoders.
var ErrCorrupt = errors.New("lz4: corrupt input")

func hash4(u uint32) uint32 { return (u * hashMul) >> hashShift }

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// CompressBlock compresses src using the LZ4 block format and returns the
// compressed block. The output is self-delimiting only in combination with
// the uncompressed size, which the caller must convey separately (Compress
// below does so).
//
// Incompressible input grows by at most len(src)/255 + 16 bytes.
func CompressBlock(src []byte) []byte {
	return CompressBlockAppend(make([]byte, 0, maxCompressedLen(len(src))), src)
}

// maxCompressedLen bounds CompressBlock's worst-case output.
func maxCompressedLen(raw int) int { return raw + raw/255 + 16 }

// CompressBlockAppend is CompressBlock appending to dst, letting callers
// reuse a compression buffer across blocks (pass dst[:0]).
func CompressBlockAppend(dst, src []byte) []byte {
	dst, _ = compressBlock(dst, src, true)
	return dst
}

// CompressedLen returns len(CompressBlock(src)) without writing the block:
// the same parse, with each sequence counted instead of appended. A caller
// that only needs the size (kernelgen's calibration search) skips copying
// every literal and allocating the output.
func CompressedLen(src []byte) int {
	_, n := compressBlock(nil, src, false)
	return n
}

// matchTable maps a hash of four bytes to entry(pos, word): the last
// position they were seen at and the word there. 0 is an empty slot.
type matchTable [1 << hashLog]uint64

func entry(pos int, word uint32) uint64 { return uint64(pos+1)<<32 | uint64(word) }

// tables lends parse its match table, 512 KiB that would otherwise be
// allocated per call. A table is cleared on every take, so it carries
// nothing from one call to the next.
var tables = sync.Pool{New: func() any { return new(matchTable) }}

// compressBlock is CompressBlockAppend (emit) or CompressedLen (not): an
// input from splitMin up to splitMax bytes is parsed in two halves when
// the host-work pool has two workers, any other in one pass.
func compressBlock(dst, src []byte, emit bool) ([]byte, int) {
	if len(src) >= splitMin && len(src) < splitMax && hostwork.Workers() >= 2 {
		dst, n, _ := compressSplit(dst, src, emit)
		return dst, n
	}
	dst, n, _ := parse(dst, src, 0, emit, nil)
	return dst, n
}

// observer is told each sequence parse finds: the position findMatch
// stopped at, where the match ends, and the block's length and dst's
// after it. Returning true stops the parse at that match end.
type observer func(found, end, n, off int) bool

// parse is the one match finder. It parses src[start:] with a fresh table,
// as a block that begins at start, and has two sinks: it adds each
// sequence's length to n, the block's length, and with emit it also
// appends the sequence to dst; without, dst is left alone. The flag is
// tested once per sequence, not per byte. observe, if not nil, sees every
// sequence; parse returns at the match end it stops at, with no final
// literals, or at len(src) with them.
func parse(dst, src []byte, start int, emit bool, observe observer) (_ []byte, n, stop int) {
	if len(src)-start < mfLimit+1 {
		// Too short for a match: one literals-only sequence (an empty
		// block is a single empty-literal token).
		if emit {
			dst = appendLiterals(dst, src[start:])
		}
		return dst, literalsLen(len(src) - start), len(src)
	}

	table := tables.Get().(*matchTable)
	clear(table[:])

	anchor := start
	s := start
	limit := len(src) - mfLimit
	matchLimit := len(src) - lastLiterals

	for {
		var ref int
		if s, ref = findMatch(table, src, s, limit); s >= limit {
			break
		}
		found := s

		// Extend the match backwards over bytes we already emitted as
		// pending literals.
		for s > anchor && ref > 0 && src[s-1] == src[ref-1] {
			s--
			ref--
		}

		// Extend forwards, but never into the last-literals region.
		matchLen := minMatch + commonPrefix(src[s+minMatch:matchLimit], src[ref+minMatch:])

		if emit {
			dst = appendSequence(dst, src[anchor:s], s-ref, matchLen)
		}
		n += sequenceLen(s-anchor, matchLen)
		s += matchLen
		anchor = s

		// Prime the table with a position inside the match so long runs
		// keep finding themselves.
		if s < limit {
			w := load32(src, s-2)
			table[hash4(w)] = entry(s-2, w)
		}
		if observe != nil && observe(found, s, n, len(dst)) {
			tables.Put(table)
			return dst, n, s
		}
	}
	tables.Put(table)

	if emit {
		dst = appendLiterals(dst, src[anchor:])
	}
	return dst, n + literalsLen(len(src)-anchor), len(src)
}

// findMatch scans src from s for the first position before limit whose
// four bytes equal the word table holds for their hash, at a position no
// more than maxOffset back, and returns it with that earlier position.
// Every position it passes is entered in table. It returns limit when no
// position matches.
//
// It is the compressor's per-byte loop, kept apart so that nothing else is
// live in it. The compare reads the word from the slot, not from src at
// the slot's position: on incompressible input it fails at nearly every
// byte, so its branch predicts, and no byte behind the scan is loaded.
func findMatch(table *matchTable, src []byte, s, limit int) (int, int) {
	for ; s < limit; s++ {
		cur := load32(src, s)
		h := hash4(cur)
		e := table[h]
		table[h] = entry(s, cur)
		if ref := int(e>>32) - 1; uint32(e) == cur && e != 0 && s-ref <= maxOffset {
			return s, ref
		}
	}
	return limit, 0
}

// commonPrefix returns how many leading bytes of a equal b's. b is at least
// as long as a. Eight bytes are compared per step: the first differing byte
// of two little-endian words is the lowest set byte of their xor.
func commonPrefix(a, b []byte) int {
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// appendSequence emits one LZ4 sequence: token, literal run, offset, match
// length extension.
func appendSequence(dst []byte, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	mlCode := matchLen - minMatch

	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	if mlCode >= 15 {
		token |= 15
	} else {
		token |= byte(mlCode)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if mlCode >= 15 {
		dst = appendLenExt(dst, mlCode-15)
	}
	return dst
}

// sequenceLen is len(appendSequence(nil, literals, offset, matchLen)) for
// len(literals) == litLen.
func sequenceLen(litLen, matchLen int) int {
	n := literalsLen(litLen) + 2
	if mlCode := matchLen - minMatch; mlCode >= 15 {
		n += lenExtLen(mlCode - 15)
	}
	return n
}

// literalsLen is len(appendLiterals(nil, literals)) for len(literals) ==
// litLen: the token, its length extension and the literals.
func literalsLen(litLen int) int {
	n := 1 + litLen
	if litLen >= 15 {
		n += lenExtLen(litLen - 15)
	}
	return n
}

// lenExtLen is len(appendLenExt(nil, n)): a 255 per full 255, then the
// remainder.
func lenExtLen(n int) int { return n/255 + 1 }

// appendLiterals emits the final literals-only sequence.
func appendLiterals(dst []byte, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= 15 {
		dst = append(dst, 15<<4)
		dst = appendLenExt(dst, litLen-15)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

// appendLenExt writes the 255-run length extension encoding of n.
func appendLenExt(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// DecompressBlock decompresses an LZ4 block into a buffer of exactly
// dstSize bytes and returns it. It validates offsets and lengths and never
// reads or writes out of bounds.
func DecompressBlock(src []byte, dstSize int) ([]byte, error) {
	if dstSize < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrCorrupt)
	}
	dst := make([]byte, dstSize)
	if err := DecompressBlockInto(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecompressBlockInto decompresses an LZ4 block into dst, which must be
// exactly the uncompressed size. It allocates nothing, so callers on hot
// paths can reuse or pool destination buffers.
func DecompressBlockInto(dst, src []byte) error {
	d := 0
	s := 0

	for s < len(src) {
		token := src[s]
		s++

		// Literal run.
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
			break // final literals-only sequence
		}

		// Match.
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
		// Copied from what is already written: a match that starts at least
		// matchLen back in one memmove; one that overlaps its own output
		// (offset < matchLen, RLE) repeats the offset bytes before it, so
		// each copy doubles the run it copies from.
		ref, end := d-offset, d+matchLen
		for d < end {
			d += copy(dst[d:end], dst[ref:d])
		}
	}

	if d != len(dst) {
		return fmt.Errorf("%w: decoded %d bytes, expected %d", ErrCorrupt, d, len(dst))
	}
	return nil
}

func readLenExt(src []byte, s int) (n, next int, err error) {
	for {
		if s >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
		}
		b := src[s]
		s++
		n += int(b)
		if b != 255 {
			return n, s, nil
		}
	}
}

// Frame format: magic, uncompressed size (LE u64), block — the size a
// decompressor needs before it allocates, and what Fig. 5's LZ4 initrd
// row transfers.
var frameMagic = []byte{'S', 'V', 'L', 'Z', '4', 1}

// Compress wraps CompressBlock in a frame carrying the uncompressed size.
func Compress(src []byte) []byte {
	block := CompressBlock(src)
	out := make([]byte, 0, len(frameMagic)+8+len(block))
	out = append(out, frameMagic...)
	var sz [8]byte
	binary.LittleEndian.PutUint64(sz[:], uint64(len(src)))
	out = append(out, sz[:]...)
	return append(out, block...)
}
