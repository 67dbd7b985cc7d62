// Package ghcb models the Guest-Host Communication Block: the shared page
// an SEV-ES/SNP guest uses to expose chosen register state to the
// hypervisor during #VC exits (paper §2.2, §6.1 Testing Methodology).
//
// Two protocols coexist, both modeled with real page bytes:
//
//   - The GHCB page protocol: the #VC handler writes the exit code, exit
//     info, and the registers it chooses to share into a 4 KiB *shared*
//     page, sets the valid bitmap, and issues VMGEXIT; the hypervisor
//     reads the page and emulates.
//   - The GHCB MSR protocol: before a handler/page exists (early boot),
//     the guest communicates through the GHCB MSR itself with small coded
//     values — which is how the paper's boot-timing events escape the
//     guest before #VC handlers are installed.
package ghcb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/guestmem"
)

// ExitIOIO is the SVM VMEXIT code for port I/O, reused by the GHCB
// protocol: the debug-port writes that carry the boot-timing events.
const ExitIOIO uint64 = 0x7B

// Page field offsets within the 4 KiB GHCB (following the shape of the
// GHCB layout: a save area plus protocol fields near the end).
const (
	offRAX       = 0x01F8
	offRBX       = 0x0318
	offRCX       = 0x0308
	offRDX       = 0x0310
	offExitCode  = 0x0390
	offExitInfo1 = 0x0398
	offExitInfo2 = 0x03A0
	offValidBM   = 0x03F0 // 16-byte bitmap of valid quadwords
	offVersion   = 0x0FFA
	offUsage     = 0x0FF8 // protocol usage: 0 = GHCB
)

// Errors.
var (
	ErrNotShared = errors.New("ghcb: GHCB page must be in shared memory")
	ErrProtocol  = errors.New("ghcb: protocol violation")
)

// GHCB is a guest-side handle on the communication page.
type GHCB struct {
	mem *guestmem.Memory
	gpa uint64
}

// New registers the GHCB at gpa. The page must be shared: a private GHCB
// would hand the hypervisor ciphertext, so the guest converts it first.
func New(mem *guestmem.Memory, gpa uint64) (*GHCB, error) {
	if gpa%guestmem.PageSize != 0 {
		return nil, fmt.Errorf("%w: GHCB must be page aligned", ErrProtocol)
	}
	// Page-state-change to shared, then initialize version/usage.
	if err := mem.ShareRange(gpa, guestmem.PageSize); err != nil {
		return nil, err
	}
	g := &GHCB{mem: mem, gpa: gpa}
	var init [8]byte
	binary.LittleEndian.PutUint16(init[0:], 2) // version 2
	if err := mem.GuestWrite(gpa+offVersion, init[:2], false); err != nil {
		return nil, err
	}
	if err := mem.GuestWrite(gpa+offUsage, []byte{0, 0}, false); err != nil {
		return nil, err
	}
	return g, nil
}

// Exit is one #VC exit: the guest-chosen state to expose.
type Exit struct {
	Code         uint64
	Info1, Info2 uint64
	RAX, RBX     uint64
	RCX, RDX     uint64
	ShareRAX     bool // which registers the handler chooses to expose
	ShareRBX     bool
	ShareRCX     bool
	ShareRDX     bool
}

// validBit indexes the quadword-valid bitmap.
func validBit(off int) (byteIdx int, mask byte) {
	q := off / 8
	return q / 8, 1 << (q % 8)
}

// The protocol span: every field an exit stages, from the first shared
// register to the end of the valid bitmap, 520 bytes. An exit moves the
// span and the version word; the rest of the page is what New left, zeros,
// and nothing stores there.
const (
	spanStart = offRAX
	spanEnd   = offValidBM + 16
	spanLen   = spanEnd - spanStart
)

// Write stages an exit in the GHCB page (the guest #VC handler's job):
// only the registers the handler marked shared become visible. Like
// Linux's handler, it clears the valid bitmap rather than the page: the
// whole span is rewritten, so no field of an earlier exit, and no host
// store into the span, survives into this one.
func (g *GHCB) Write(e Exit) error {
	var span [spanLen]byte
	le := binary.LittleEndian
	bm := span[offValidBM-spanStart:]
	set := func(off int, v uint64) {
		le.PutUint64(span[off-spanStart:], v)
		bi, mask := validBit(off)
		bm[bi] |= mask
	}
	set(offExitCode, e.Code)
	set(offExitInfo1, e.Info1)
	set(offExitInfo2, e.Info2)
	if e.ShareRAX {
		set(offRAX, e.RAX)
	}
	if e.ShareRBX {
		set(offRBX, e.RBX)
	}
	if e.ShareRCX {
		set(offRCX, e.RCX)
	}
	if e.ShareRDX {
		set(offRDX, e.RDX)
	}
	if err := g.mem.GuestWrite(g.gpa+spanStart, span[:], false); err != nil {
		return err
	}
	var version [2]byte
	le.PutUint16(version[:], 2)
	return g.mem.GuestWrite(g.gpa+offVersion, version[:], false)
}

// HostView is what the hypervisor decodes from the page after VMGEXIT.
type HostView struct {
	Code         uint64
	Info1, Info2 uint64
	RAX, RBX     uint64
	RCX, RDX     uint64
	HasRAX       bool
	HasRBX       bool
	HasRCX       bool
	HasRDX       bool
}

// ReadFromHost parses the GHCB as the hypervisor does: fields count only
// when their valid bit is set. Reading a private page fails loudly. The
// whole page must lie in guest memory; only the protocol span and the
// version word are read, onto the caller's stack.
func ReadFromHost(mem *guestmem.Memory, gpa uint64) (HostView, error) {
	if mem.IsPrivate(gpa) {
		return HostView{}, ErrNotShared
	}
	if end := gpa + guestmem.PageSize; end < gpa || end > mem.Size() {
		return HostView{}, fmt.Errorf("%w: GHCB page [%#x,+%d) of %#x", guestmem.ErrOutOfRange, gpa, guestmem.PageSize, mem.Size())
	}
	var span [spanLen]byte
	var version [2]byte
	if err := mem.HostReadInto(gpa+offVersion, version[:]); err != nil {
		return HostView{}, err
	}
	le := binary.LittleEndian
	if le.Uint16(version[:]) != 2 {
		return HostView{}, fmt.Errorf("%w: bad GHCB version", ErrProtocol)
	}
	if err := mem.HostReadInto(gpa+spanStart, span[:]); err != nil {
		return HostView{}, err
	}
	bm := span[offValidBM-spanStart:]
	valid := func(off int) bool {
		bi, mask := validBit(off)
		return bm[bi]&mask != 0
	}
	field := func(off int) uint64 { return le.Uint64(span[off-spanStart:]) }
	if !valid(offExitCode) {
		return HostView{}, fmt.Errorf("%w: exit code not marked valid", ErrProtocol)
	}
	v := HostView{
		Code:  field(offExitCode),
		Info1: field(offExitInfo1),
		Info2: field(offExitInfo2),
	}
	if valid(offRAX) {
		v.RAX, v.HasRAX = field(offRAX), true
	}
	if valid(offRBX) {
		v.RBX, v.HasRBX = field(offRBX), true
	}
	if valid(offRCX) {
		v.RCX, v.HasRCX = field(offRCX), true
	}
	if valid(offRDX) {
		v.RDX, v.HasRDX = field(offRDX), true
	}
	return v, nil
}

// --- MSR protocol (pre-handler early boot) ---

// MSR protocol request/response codes (low 12 bits).
const (
	MSRCPUIDReq  = 0x004
	MSRCPUIDResp = 0x005
)

// MSRCPUIDRequest encodes an early-boot CPUID request through the GHCB
// MSR: leaf in the high bits, register selector in bits 30-31, request
// code in the low 12.
func MSRCPUIDRequest(leaf uint32, reg uint8) uint64 {
	return uint64(leaf)<<32 | uint64(reg&3)<<30 | MSRCPUIDReq
}

// ParseMSRCPUIDRequest decodes the hypervisor side.
func ParseMSRCPUIDRequest(v uint64) (leaf uint32, reg uint8, ok bool) {
	if v&0xFFF != MSRCPUIDReq {
		return 0, 0, false
	}
	return uint32(v >> 32), uint8(v >> 30 & 3), true
}

// MSRCPUIDResponse encodes the reply value.
func MSRCPUIDResponse(value uint32) uint64 {
	return uint64(value)<<32 | MSRCPUIDResp
}

// ParseMSRCPUIDResponse decodes the guest side.
func ParseMSRCPUIDResponse(v uint64) (value uint32, ok bool) {
	if v&0xFFF != MSRCPUIDResp {
		return 0, false
	}
	return uint32(v >> 32), true
}
