// Package elfx writes and reads the minimal subset of ELF64 needed for a
// Linux vmlinux image: the file header, program headers, and PT_LOAD
// segments. The VMM's direct-boot loader and the boot verifier's optimized
// fw_cfg protocol (paper §5) both parse images produced here.
package elfx

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ELF constants for the subset we implement: x86-64 executables.
const (
	ehSize = 64 // ELF64 file header size
	phSize = 56 // program header size

	PTLoad = 1 // PT_LOAD segment type
	PTNote = 4 // PT_NOTE segment type

	etExec  = 2  // ET_EXEC
	emX8664 = 62 // EM_X86_64
)

// ErrNotELF reports input that is not a parseable ELF64 image.
var ErrNotELF = errors.New("elfx: not a valid ELF64 image")

// Segment is one program-header entry plus its file data.
type Segment struct {
	Type  uint32 // PTLoad or PTNote
	Flags uint32 // PF_X|PF_W|PF_R bits; informational here
	Vaddr uint64 // load address (physical == virtual for vmlinux)
	Data  []byte // file content; loaded size
	// Memsz extends beyond len(Data) for BSS; the loader zero-fills.
	Memsz uint64
}

// Image is a minimal ELF64 executable.
type Image struct {
	Entry    uint64
	Segments []Segment
}

// Build serializes the image into buf, which it returns resliced to the
// file's length; a buf short of that capacity is replaced by a new one.
// The layout is deterministic: header, program header table, then segment
// data in order, each aligned to 16 bytes.
//
// Every segment's data is moved into place, last segment first, before the
// headers and the alignment gaps are written, so a segment's Data may
// already lie in buf at or before its place in the file: a generator that
// wrote the segments back to back from the first one's offset has the
// later ones shifted across the gaps, not the image copied into a second
// buffer.
func Build(buf []byte, img *Image) []byte {
	n := len(img.Segments)
	offset := uint64(ehSize + n*phSize)
	offsets := make([]uint64, n)
	for i, seg := range img.Segments {
		offset = (offset + 15) &^ 15
		offsets[i] = offset
		offset += uint64(len(seg.Data))
	}
	if uint64(cap(buf)) < offset {
		buf = make([]byte, offset)
	}
	out := buf[:offset]
	for i := n - 1; i >= 0; i-- {
		copy(out[offsets[i]:], img.Segments[i].Data)
	}
	gap := uint64(ehSize + n*phSize) // where the headers, then each segment, end
	clear(out[:gap])
	for i, seg := range img.Segments {
		clear(out[gap:offsets[i]])
		gap = offsets[i] + uint64(len(seg.Data))
	}

	// ELF identification.
	copy(out, []byte{0x7f, 'E', 'L', 'F', 2 /*64-bit*/, 1 /*LE*/, 1 /*version*/})
	le := binary.LittleEndian
	le.PutUint16(out[16:], etExec)
	le.PutUint16(out[18:], emX8664)
	le.PutUint32(out[20:], 1) // EV_CURRENT
	le.PutUint64(out[24:], img.Entry)
	le.PutUint64(out[32:], ehSize) // phoff
	le.PutUint64(out[40:], 0)      // shoff: no sections
	le.PutUint16(out[52:], ehSize)
	le.PutUint16(out[54:], phSize)
	le.PutUint16(out[56:], uint16(n))

	for i, seg := range img.Segments {
		ph := out[ehSize+i*phSize:]
		le.PutUint32(ph[0:], seg.Type)
		le.PutUint32(ph[4:], seg.Flags)
		le.PutUint64(ph[8:], offsets[i])
		le.PutUint64(ph[16:], seg.Vaddr) // vaddr
		le.PutUint64(ph[24:], seg.Vaddr) // paddr
		le.PutUint64(ph[32:], uint64(len(seg.Data)))
		memsz := seg.Memsz
		if memsz < uint64(len(seg.Data)) {
			memsz = uint64(len(seg.Data))
		}
		le.PutUint64(ph[40:], memsz)
		le.PutUint64(ph[48:], 16) // align
	}
	return out
}

// FileRegion is one contiguous span of a serialized ELF file, classified
// for the measured-direct-boot streaming protocol: Load regions carry a
// PT_LOAD segment's bytes to their run address; non-Load regions (header,
// program headers, notes, alignment padding) are hashed but discarded.
type FileRegion struct {
	Off   uint64 // file offset
	Len   int
	Vaddr uint64 // destination, meaningful when Load
	Load  bool
}

// FileRegions tiles the entire serialized image into regions in file
// order. The concatenation of all regions is exactly the file, so a
// streaming hash over them equals the hash of the file.
func FileRegions(b []byte) ([]FileRegion, error) {
	if len(b) < ehSize {
		return nil, fmt.Errorf("%w: short header", ErrNotELF)
	}
	le := binary.LittleEndian
	phoff := le.Uint64(b[32:])
	phentsize := uint64(le.Uint16(b[54:]))
	phnum := uint64(le.Uint16(b[56:]))
	// All arithmetic stays in uint64: a hostile header with phoff near
	// 2^64 must be rejected here, not wrap through int and panic below.
	// Each entry must hold the fields we read (up to offset 40).
	if phnum > 0 && phentsize < 40 {
		return nil, fmt.Errorf("%w: program header entry size %d too small", ErrNotELF, phentsize)
	}
	span := phentsize * phnum
	if phoff > uint64(len(b)) || span > uint64(len(b))-phoff {
		return nil, fmt.Errorf("%w: program headers out of range", ErrNotELF)
	}
	type load struct {
		off   uint64
		size  uint64
		vaddr uint64
	}
	var loads []load
	for i := uint64(0); i < phnum; i++ {
		ph := b[phoff+i*phentsize:]
		if le.Uint32(ph[0:]) != PTLoad {
			continue
		}
		loads = append(loads, load{
			off:   le.Uint64(ph[8:]),
			size:  le.Uint64(ph[32:]),
			vaddr: le.Uint64(ph[16:]),
		})
	}
	// Loads must be in increasing, non-overlapping file order (true for
	// images from Build and for real vmlinux files).
	for i := 1; i < len(loads); i++ {
		prevEnd := loads[i-1].off + loads[i-1].size
		if prevEnd < loads[i-1].off || loads[i].off < prevEnd {
			return nil, fmt.Errorf("%w: overlapping PT_LOAD file ranges", ErrNotELF)
		}
	}
	var regions []FileRegion
	cursor := uint64(0)
	for _, l := range loads {
		if l.off > uint64(len(b)) || l.size > uint64(len(b))-l.off {
			return nil, fmt.Errorf("%w: PT_LOAD out of file", ErrNotELF)
		}
		if l.off > cursor {
			regions = append(regions, FileRegion{Off: cursor, Len: int(l.off - cursor)})
		}
		regions = append(regions, FileRegion{Off: l.off, Len: int(l.size), Vaddr: l.vaddr, Load: true})
		cursor = l.off + l.size
	}
	if cursor < uint64(len(b)) {
		regions = append(regions, FileRegion{Off: cursor, Len: len(b) - int(cursor)})
	}
	return regions, nil
}
