// Package bootparams builds and parses the Linux boot_params structure
// (the "zero page"): the 4 KiB block that tells the kernel where its
// command line, initrd, and usable memory live. A microVM monitor fills
// this in on the guest's behalf; under SEVeriFast it is pre-encrypted
// since the structure (4 KiB) is smaller than the ~5 KiB of code needed
// to generate it in the guest (Fig. 7).
package bootparams

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the zero page size.
const Size = 4096

// GeneratorCodeSize is the guest-side code needed to build boot_params
// instead (Fig. 7's ~5 KiB).
const GeneratorCodeSize = 5120

// Field offsets within boot_params (from arch/x86/include/uapi/asm/bootparam.h).
const (
	offE820Entries = 0x1E8 // u8 count
	offSetupSects  = 0x1F1 // mirror of the bzImage setup header
	offHdrMagic    = 0x202 // "HdrS"
	offVersion     = 0x206
	offLoadFlags   = 0x211
	offRamdisk     = 0x218 // u32 ramdisk_image
	offRamdiskSize = 0x21C // u32 ramdisk_size
	offCmdlinePtr  = 0x228 // u32 cmd_line_ptr
	offCmdlineSize = 0x238 // u32 cmdline_size
	offE820Table   = 0x2D0 // 20-byte entries
	maxE820        = 128
)

const hdrSMagic = 0x53726448

// E820Type classifies a memory region.
type E820Type uint32

// E820 region types.
const (
	E820Usable   E820Type = 1
	E820Reserved E820Type = 2
)

// E820Entry is one memory-map region.
type E820Entry struct {
	Addr uint64
	Size uint64
	Type E820Type
}

// Params is the decoded zero page content we care about.
type Params struct {
	CmdlinePtr   uint32
	CmdlineSize  uint32
	RamdiskImage uint32
	RamdiskSize  uint32
	E820         []E820Entry
}

// ErrCorrupt reports a malformed zero page.
var ErrCorrupt = errors.New("bootparams: corrupt zero page")

// Build serializes params into a 4 KiB zero page.
func Build(p Params) ([]byte, error) {
	if len(p.E820) > maxE820 {
		return nil, fmt.Errorf("bootparams: %d e820 entries exceeds %d", len(p.E820), maxE820)
	}
	out := make([]byte, Size)
	le := binary.LittleEndian
	// Minimal setup-header mirror so the kernel's sanity checks pass.
	out[offSetupSects] = 0
	le.PutUint32(out[offHdrMagic:], hdrSMagic)
	le.PutUint16(out[offVersion:], 0x020F)
	out[offLoadFlags] = 0x01 // LOADED_HIGH
	le.PutUint32(out[offRamdisk:], p.RamdiskImage)
	le.PutUint32(out[offRamdiskSize:], p.RamdiskSize)
	le.PutUint32(out[offCmdlinePtr:], p.CmdlinePtr)
	le.PutUint32(out[offCmdlineSize:], p.CmdlineSize)
	out[offE820Entries] = byte(len(p.E820))
	for i, e := range p.E820 {
		ent := out[offE820Table+20*i:]
		le.PutUint64(ent[0:], e.Addr)
		le.PutUint64(ent[8:], e.Size)
		le.PutUint32(ent[16:], uint32(e.Type))
	}
	return out, nil
}

// Parse decodes a zero page, validating the header mirror.
func Parse(b []byte) (*Params, error) {
	if len(b) < Size {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(b))
	}
	le := binary.LittleEndian
	if le.Uint32(b[offHdrMagic:]) != hdrSMagic {
		return nil, fmt.Errorf("%w: missing HdrS mirror", ErrCorrupt)
	}
	n := int(b[offE820Entries])
	if n > maxE820 {
		return nil, fmt.Errorf("%w: e820 count %d", ErrCorrupt, n)
	}
	p := &Params{
		CmdlinePtr:   le.Uint32(b[offCmdlinePtr:]),
		CmdlineSize:  le.Uint32(b[offCmdlineSize:]),
		RamdiskImage: le.Uint32(b[offRamdisk:]),
		RamdiskSize:  le.Uint32(b[offRamdiskSize:]),
	}
	if n > 0 {
		p.E820 = make([]E820Entry, n)
	}
	for i := range p.E820 {
		ent := b[offE820Table+20*i:]
		p.E820[i] = E820Entry{
			Addr: le.Uint64(ent[0:]),
			Size: le.Uint64(ent[8:]),
			Type: E820Type(le.Uint32(ent[16:])),
		}
	}
	return p, nil
}

// StandardE820 returns the microVM memory map: low 640 KiB usable, legacy
// hole reserved, the rest usable up to memSize.
func StandardE820(memSize uint64) []E820Entry {
	return []E820Entry{
		{Addr: 0, Size: 0x9FC00, Type: E820Usable},
		{Addr: 0x9FC00, Size: 0x100000 - 0x9FC00, Type: E820Reserved},
		{Addr: 0x100000, Size: memSize - 0x100000, Type: E820Usable},
	}
}
