// Package bzimage builds and parses Linux x86 bzImage files: a real-mode
// setup block with the boot-protocol header ("HdrS"), a protected-mode
// bootstrap loader stub, and a compressed kernel payload.
//
// This mirrors the on-disk format closely enough that all the costs the
// paper reasons about are faithful: the bzImage is bigger than its payload
// by the setup block and the decompressor stub, the payload is located via
// payload_offset/payload_length exactly as Linux's own loader does, and the
// codec is sniffed from the payload container. The boot verifier in
// internal/verifier loads images built here; the guest Linux model in
// internal/linux runs the bootstrap stage through VMLinuxOf. A payload
// whose plain text the process already holds, because it compressed it
// (Remember), is not decoded again: the guest's decompression is charged
// in virtual time either way. A tampered or foreign payload is decoded for
// real, and a corrupt one fails the boot with ErrBadPayload.
package bzimage

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/lz4"
)

const (
	sectorSize = 512
	// setupSects is the number of real-mode sectors after the boot sector.
	// Modern kernels use a handful; we fix it for determinism.
	setupSects = 7
	setupSize  = sectorSize * (setupSects + 1)

	bootFlag  = 0xAA55
	hdrSMagic = 0x53726448 // "HdrS", little-endian
	// protocol version 2.15, what recent kernels report.
	protocolVersion = 0x020F

	code32Start = 0x100000

	// stubSize is the size of the synthetic protected-mode decompressor
	// stub that precedes the payload. Real kernels carry roughly this much
	// extracted-in-place loader code.
	stubSize = 24 * 1024
)

// Codec identifies the payload compression.
type Codec string

// Supported payload codecs.
const (
	CodecNone Codec = "none"
	CodecLZ4  Codec = "lz4"
	CodecGzip Codec = "gzip"
)

// payload container: magic, codec byte, uncompressed size, data.
var payloadMagic = []byte{'S', 'V', 'P', 'L'}

// Errors.
var (
	ErrNotBzImage = errors.New("bzimage: not a valid bzImage")
	ErrBadPayload = errors.New("bzimage: corrupt payload")
)

// Info describes a parsed image.
type Info struct {
	SetupSects    int
	PayloadOffset int // into the protected-mode region
	PayloadLength int
	InitSize      uint32 // memory needed to decompress in place
	Codec         Codec
	Uncompressed  int    // size of the vmlinux inside
	Payload       []byte // the payload container (still compressed)
}

// Build wraps a vmlinux into a bzImage using the given codec. The seed
// fixes the synthetic setup/stub bytes so identical inputs produce
// identical images (their hashes go into the launch digest). The image is
// one buffer, written once: the payload container is appended straight
// after room for the setup block and the stub, which are filled after it.
func Build(vmlinux []byte, codec Codec, seed int64) ([]byte, error) {
	// A kernel image compresses to a quarter or less (Fig. 8). A worst-case
	// buffer would be zeroed in full to be a quarter used; append regrows a
	// short one.
	out := make([]byte, setupSize+stubSize, setupSize+stubSize+payloadHeader+len(vmlinux)/4)
	out, err := appendPayload(out, vmlinux, codec)
	if err != nil {
		return nil, err
	}

	// Real-mode setup block: mostly 16-bit code we never execute; fill
	// with deterministic noise, then lay down the header fields.
	rng := rand.New(rand.NewSource(seed))
	fill(rng, out[:setupSize])
	le := binary.LittleEndian
	out[0x1F1] = setupSects
	le.PutUint16(out[0x1FE:], bootFlag)
	out[0x200] = 0xEB // short jmp, as real kernels have
	out[0x201] = 0x66
	le.PutUint32(out[0x202:], hdrSMagic)
	le.PutUint16(out[0x206:], protocolVersion)
	out[0x211] = 0x01 // loadflags: LOADED_HIGH
	le.PutUint32(out[0x214:], code32Start)
	le.PutUint32(out[0x250:], stubSize) // payload_offset
	initSize := (uint32(len(vmlinux)) + 0xFFFFF) &^ 0xFFFFF
	le.PutUint32(out[0x260:], initSize)

	// Protected-mode stub: the in-place decompressor. Synthetic bytes.
	fill(rng, out[setupSize:setupSize+stubSize])
	le.PutUint32(out[0x254:], uint32(len(out)-setupSize-stubSize)) // payload_length
	return out, nil
}

func fill(rng *rand.Rand, b []byte) {
	// rand.Rand.Read never returns an error.
	_, _ = rng.Read(b)
}

// Parse validates the boot-protocol header and locates the payload.
func Parse(b []byte) (*Info, error) {
	if len(b) < setupSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the setup block", ErrNotBzImage, len(b))
	}
	le := binary.LittleEndian
	if le.Uint16(b[0x1FE:]) != bootFlag {
		return nil, fmt.Errorf("%w: missing 0xAA55 boot flag", ErrNotBzImage)
	}
	if le.Uint32(b[0x202:]) != hdrSMagic {
		return nil, fmt.Errorf("%w: missing HdrS magic", ErrNotBzImage)
	}
	sects := int(b[0x1F1])
	pmOff := sectorSize * (sects + 1)
	if pmOff > len(b) {
		return nil, fmt.Errorf("%w: setup_sects overruns image", ErrNotBzImage)
	}
	payOff := int(le.Uint32(b[0x250:]))
	payLen := int(le.Uint32(b[0x254:]))
	start := pmOff + payOff
	if start+payLen > len(b) || payLen < 0 || payOff < 0 {
		return nil, fmt.Errorf("%w: payload out of range", ErrNotBzImage)
	}
	payload := b[start : start+payLen]
	codec, usize, err := sniffPayload(payload)
	if err != nil {
		return nil, err
	}
	return &Info{
		SetupSects:    sects,
		PayloadOffset: payOff,
		PayloadLength: payLen,
		InitSize:      le.Uint32(b[0x260:]),
		Codec:         codec,
		Uncompressed:  usize,
		Payload:       payload,
	}, nil
}

// payloadHeader is the payload container's magic, codec byte and
// uncompressed size (a uint64).
const payloadHeader = 4 + 1 + 8

// appendPayload appends the payload container to out. The codec appends
// straight after the container header, so the compressed bytes are written
// once.
func appendPayload(out, vmlinux []byte, codec Codec) ([]byte, error) {
	tag, ok := codecByte(codec)
	if !ok {
		return nil, fmt.Errorf("bzimage: unknown codec %q", codec)
	}
	out = append(out, payloadMagic...)
	out = append(out, tag)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(vmlinux)))
	switch codec {
	case CodecLZ4:
		return lz4.CompressBlockAppend(out, vmlinux), nil
	case CodecGzip:
		buf := bytes.NewBuffer(out)
		zw, err := gzip.NewWriterLevel(buf, gzip.BestSpeed)
		if err != nil {
			return nil, err
		}
		if _, err := zw.Write(vmlinux); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return append(out, vmlinux...), nil
}

// DecompressPayload unwraps and decompresses a payload container.
func DecompressPayload(payload []byte) ([]byte, error) {
	codec, usize, err := sniffPayload(payload)
	if err != nil {
		return nil, err
	}
	data := payload[payloadHeader:]
	switch codec {
	case CodecNone:
		if len(data) != usize {
			return nil, fmt.Errorf("%w: raw payload size mismatch", ErrBadPayload)
		}
		out := make([]byte, usize)
		copy(out, data)
		return out, nil
	case CodecLZ4:
		// An LZ4 sequence emits at most ~255 output bytes per input byte
		// (run-length extension), so a container whose declared size
		// exceeds that bound is hostile; reject it before DecompressBlock
		// allocates the declared size.
		if usize > 256*len(data)+64 {
			return nil, fmt.Errorf("%w: declared size %d impossible for %d compressed bytes",
				ErrBadPayload, usize, len(data))
		}
		out, err := lz4.DecompressBlock(data, usize)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadPayload, err)
		}
		return out, nil
	case CodecGzip:
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadPayload, err)
		}
		// Decompress straight into a buffer preallocated from the declared
		// size (no append-doubling): a short stream fails ReadFull, and a
		// decompression bomb is caught by the one-byte overrun probe before
		// it can balloon past the declared size.
		out := make([]byte, usize)
		if _, err := io.ReadFull(zr, out); err != nil {
			return nil, fmt.Errorf("%w: gzip payload size mismatch: %w", ErrBadPayload, err)
		}
		var probe [1]byte
		if n, _ := zr.Read(probe[:]); n != 0 {
			return nil, fmt.Errorf("%w: gzip payload size mismatch", ErrBadPayload)
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: unknown codec", ErrBadPayload)
}

func sniffPayload(payload []byte) (Codec, int, error) {
	if len(payload) < payloadHeader {
		return "", 0, fmt.Errorf("%w: short container", ErrBadPayload)
	}
	if !bytes.Equal(payload[:len(payloadMagic)], payloadMagic) {
		return "", 0, fmt.Errorf("%w: bad container magic", ErrBadPayload)
	}
	var codec Codec
	switch payload[len(payloadMagic)] {
	case 0:
		codec = CodecNone
	case 1:
		codec = CodecLZ4
	case 2:
		codec = CodecGzip
	default:
		return "", 0, fmt.Errorf("%w: unknown codec byte %d", ErrBadPayload, payload[len(payloadMagic)])
	}
	usize := binary.LittleEndian.Uint64(payload[len(payloadMagic)+1:])
	// Kernels are tens of megabytes; anything claiming a gigabyte or more
	// is a hostile header trying to drive a huge allocation downstream.
	if usize >= 1<<30 {
		return "", 0, fmt.Errorf("%w: implausible uncompressed size", ErrBadPayload)
	}
	return codec, int(usize), nil
}

func codecByte(c Codec) (tag byte, ok bool) {
	switch c {
	case CodecNone:
		return 0, true
	case CodecLZ4:
		return 1, true
	case CodecGzip:
		return 2, true
	}
	return 0, false
}

// Overhead is the fixed size a bzImage adds over its payload container.
func Overhead() int { return setupSize + stubSize }

// kernel is what VMLinuxOf memoises on a bzImage: the vmlinux inside it and
// the codec it was packed with.
type kernel struct {
	vmlinux *artifact.Buf
	codec   Codec
}

// vmlinuxKey names the memo of the vmlinux inside img.Bytes()[base:base+n].
// The whole buffer, which is what every loader stages, has a constant key.
func vmlinuxKey(img *artifact.Buf, base, n int) string {
	if base == 0 && n == img.Len() {
		return "bzimage.vmlinux"
	}
	return fmt.Sprintf("bzimage.vmlinux:%d:%d", base, n)
}

// Remember records on img, a whole bzImage, the vmlinux its payload holds,
// for a producer that has it without decoding: the one it compressed.
// VMLinuxOf(img, 0, img.Len()) then returns vmlinux until Corrupt changes
// img. vmlinux must be what DecompressPayload makes of img's payload, and
// neither buffer may ever change.
func Remember(img, vmlinux *artifact.Buf) {
	img.Derived(vmlinuxKey(img, 0, img.Len()), func() (any, error) {
		info, err := Parse(img.Bytes())
		if err != nil {
			return nil, err
		}
		return &kernel{vmlinux, info.Codec}, nil
	})
}

// VMLinuxOf returns the vmlinux inside the bzImage at img.Bytes()[base:base+n]
// and the codec it was packed with, memoised on img: what Remember recorded,
// or else what Parse and DecompressPayload make of those bytes, decoded the
// first time it is asked for. Corrupt on img drops the memo, so a tampered
// image is decoded for real. The vmlinux is shared: do not modify it.
func VMLinuxOf(img *artifact.Buf, base, n int) (*artifact.Buf, Codec, error) {
	v, err := img.Derived(vmlinuxKey(img, base, n), func() (any, error) {
		info, err := Parse(img.Bytes()[base : base+n])
		if err != nil {
			return nil, err
		}
		vm, err := DecompressPayload(info.Payload)
		if err != nil {
			return nil, err
		}
		return &kernel{artifact.Of(vm), info.Codec}, nil
	})
	if err != nil {
		return nil, "", err
	}
	k := v.(*kernel)
	return k.vmlinux, k.codec, nil
}
