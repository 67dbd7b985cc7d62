// Package pagetable builds the x86-64 identity-mapped page tables an SEV
// microVM guest boots with: 1 GiB mapped with 2 MiB pages through a
// PML4 -> PDPT -> PD chain, with the encryption C-bit set in every entry
// that maps encrypted memory (paper §2.4, §4.2).
//
// The boot verifier generates these in C-bit memory (implicitly encrypting
// them); the pre-encryption ablation has the VMM generate them host-side
// and LAUNCH_UPDATE them instead. Both paths use this package, and tests
// walk the structure to prove the mappings and C-bits are real.
package pagetable

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	entrySize = 8
	// PDSize is the page directory covering 1 GiB with 2 MiB pages — the
	// "4 KiB" the paper's Fig. 7 lists as the page-table structure size.
	PDSize = 4096
	// TotalSize includes the PML4 and PDPT pages above the PD.
	TotalSize = 3 * 4096

	flagPresent = 1 << 0
	flagWrite   = 1 << 1
	flagHuge    = 1 << 7 // PS bit in the PD entry: 2 MiB page

	// DefaultCBit is the C-bit position reported by CPUID 0x8000001F on
	// EPYC 7003 (Milan) parts.
	DefaultCBit = 51
)

// Config parameterizes table construction.
type Config struct {
	// Base is the guest-physical address where the PML4 page lives; the
	// PDPT and PD follow at Base+0x1000 and Base+0x2000.
	Base uint64
	// MapSize is how much memory to identity-map (rounded up to 2 MiB).
	MapSize uint64
	// SetCBit controls whether entries carry the C-bit (true for SEV
	// guests; false for the non-SEV boot path).
	SetCBit bool
}

// ErrNotMapped reports a walk through a non-present entry.
var ErrNotMapped = errors.New("pagetable: address not mapped")

// Build returns the three physical pages (PML4, PDPT, PD) as one
// TotalSize-byte buffer to be placed at cfg.Base.
func Build(cfg Config) []byte {
	var enc uint64
	if cfg.SetCBit {
		enc = 1 << DefaultCBit
	}
	out := make([]byte, TotalSize)
	le := binary.LittleEndian

	pml4 := out[0:4096]
	pdpt := out[4096:8192]
	pd := out[8192:12288]

	// PML4[0] -> PDPT. Table pointers also carry the C-bit: the tables
	// themselves live in encrypted memory.
	le.PutUint64(pml4[0:], (cfg.Base+0x1000)|flagPresent|flagWrite|enc)
	// PDPT[0] -> PD.
	le.PutUint64(pdpt[0:], (cfg.Base+0x2000)|flagPresent|flagWrite|enc)

	mapped := (cfg.MapSize + (2 << 20) - 1) &^ ((2 << 20) - 1)
	if mapped > 1<<30 {
		mapped = 1 << 30 // one PD covers 1 GiB
	}
	for i := uint64(0); i*(2<<20) < mapped; i++ {
		le.PutUint64(pd[i*entrySize:], i*(2<<20)|flagPresent|flagWrite|flagHuge|enc)
	}
	return out
}

// Walk resolves vaddr through a table built by Build (passed as the raw
// TotalSize bytes at cfg.Base). It returns the physical address and
// whether the leaf entry had the C-bit set.
func Walk(table []byte, cfg Config, vaddr uint64) (pa uint64, cbitSet bool, err error) {
	if len(table) < TotalSize {
		return 0, false, fmt.Errorf("pagetable: table truncated (%d bytes)", len(table))
	}
	const cmask = uint64(1) << DefaultCBit
	addrMask := uint64(0x000F_FFFF_FFFF_F000) &^ cmask
	le := binary.LittleEndian

	pml4Idx := (vaddr >> 39) & 0x1FF
	pdptIdx := (vaddr >> 30) & 0x1FF
	pdIdx := (vaddr >> 21) & 0x1FF

	pml4e := le.Uint64(table[pml4Idx*entrySize:])
	if pml4e&flagPresent == 0 {
		return 0, false, fmt.Errorf("%w: PML4[%d]", ErrNotMapped, pml4Idx)
	}
	if pml4e&addrMask != cfg.Base+0x1000 {
		return 0, false, fmt.Errorf("pagetable: PML4 points outside table (%#x)", pml4e&addrMask)
	}
	pdpte := le.Uint64(table[4096+pdptIdx*entrySize:])
	if pdpte&flagPresent == 0 {
		return 0, false, fmt.Errorf("%w: PDPT[%d]", ErrNotMapped, pdptIdx)
	}
	pde := le.Uint64(table[8192+pdIdx*entrySize:])
	if pde&flagPresent == 0 {
		return 0, false, fmt.Errorf("%w: PD[%d]", ErrNotMapped, pdIdx)
	}
	if pde&flagHuge == 0 {
		return 0, false, errors.New("pagetable: expected 2 MiB leaf")
	}
	base := pde & addrMask &^ ((2 << 20) - 1)
	return base + vaddr&((2<<20)-1), pde&cmask != 0, nil
}

// CBitFromCPUID models the two-cpuid-instruction discovery the boot
// verifier performs (paper §5): leaf 0x8000001F EAX bit 1 advertises SEV,
// EBX[5:0] gives the C-bit position. The VMM provides the leaf values; the
// verifier calls this.
func CBitFromCPUID(eax, ebx uint32) (enabled bool, position int) {
	return eax&(1<<1) != 0, int(ebx & 0x3F)
}

// GeneratorCodeSize is the size of the verifier code that builds these
// tables (Fig. 7's 2.4 KiB "code size" for page tables).
const GeneratorCodeSize = 2400
