package ghcb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/rmp"
)

func sevMem(t *testing.T, asid uint32) *guestmem.Memory {
	t.Helper()
	mem := guestmem.New(1 << 20)
	mem.SetKey(bytes.Repeat([]byte{1}, 16), asid)
	tb := rmp.New()
	mem.AttachRMP(tb, asid)
	if err := tb.PvalidateRangeSkipValidated(0, 1<<20, 2<<20, asid); err != nil {
		t.Fatal(err)
	}
	return mem
}

const gpa = 0x8000

func TestExitRoundTrip(t *testing.T) {
	mem := sevMem(t, 1)
	g, err := New(mem, gpa)
	if err != nil {
		t.Fatal(err)
	}
	// A debug-port write: the #VC handler exposes RAX (the value) but
	// nothing else.
	err = g.Write(Exit{
		Code:     ExitIOIO,
		Info1:    0x80, // port
		RAX:      0x42,
		ShareRAX: true,
		RBX:      0xDEADBEEF, // secret: NOT shared
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ReadFromHost(mem, gpa)
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != ExitIOIO || v.Info1 != 0x80 {
		t.Fatalf("exit decoded wrong: %+v", v)
	}
	if !v.HasRAX || v.RAX != 0x42 {
		t.Fatalf("shared RAX lost: %+v", v)
	}
	if v.HasRBX {
		t.Fatal("unshared RBX visible to the host — register state leak")
	}
}

// The hypervisor decodes seven fields out of a page it reads on its own
// stack: the only allocation is the view it returns.
func TestReadFromHostAllocatesOnlyTheView(t *testing.T) {
	mem := sevMem(t, 1)
	g, err := New(mem, gpa)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(Exit{Code: ExitIOIO, Info1: 0x80, RAX: 0x42, ShareRAX: true}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, err := ReadFromHost(mem, gpa); err != nil || v.RAX != 0x42 {
			t.Fatalf("ReadFromHost: %+v, %v", v, err)
		}
	}); n != 1 {
		t.Fatalf("ReadFromHost allocates %v times, want 1", n)
	}
}

// TestHostResultRoundTrip: an emulation result the hypervisor stores in
// the GHCB after VMGEXIT is what the guest reads back — the page is shared,
// so neither side sees the other's key.
func TestHostResultRoundTrip(t *testing.T) {
	mem := sevMem(t, 1)
	if _, err := New(mem, gpa); err != nil {
		t.Fatal(err)
	}
	if err := mem.HostWrite(gpa+offRAX, []byte{0xEE, 0xFF, 0xC0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	raw, err := mem.GuestRead(gpa+offRAX, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(raw); got != 0xC0FFEE {
		t.Fatalf("result = %#x", got)
	}
}

func TestGHCBPageIsSharedAutomatically(t *testing.T) {
	mem := sevMem(t, 2)
	// Make the page private first; New must convert it back to shared.
	if err := mem.GuestWrite(gpa, []byte{1}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := New(mem, gpa); err != nil {
		t.Fatal(err)
	}
	if mem.IsPrivate(gpa) {
		t.Fatal("GHCB left private")
	}
	// And the host can now write results into it despite SNP.
	if err := mem.HostWrite(gpa+offRAX, []byte{1}); err != nil {
		t.Fatalf("host blocked from shared GHCB: %v", err)
	}
}

func TestHostRejectsPrivateGHCB(t *testing.T) {
	mem := sevMem(t, 3)
	if err := mem.GuestWrite(0x9000, make([]byte, guestmem.PageSize), true); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFromHost(mem, 0x9000); !errors.Is(err, ErrNotShared) {
		t.Fatalf("private GHCB read: %v", err)
	}
}

func TestUnalignedGHCBRejected(t *testing.T) {
	mem := sevMem(t, 4)
	if _, err := New(mem, gpa+8); err == nil {
		t.Fatal("unaligned GHCB accepted")
	}
}

func TestHostRejectsInvalidExitCode(t *testing.T) {
	mem := sevMem(t, 5)
	if _, err := New(mem, gpa); err != nil {
		t.Fatal(err)
	}
	// Page initialized but no exit staged: valid bitmap empty.
	if _, err := ReadFromHost(mem, gpa); err == nil {
		t.Fatal("empty GHCB decoded as an exit")
	}
}

func TestMSRCPUIDProtocol(t *testing.T) {
	req := MSRCPUIDRequest(0x8000001F, 1) // EBX of the SEV leaf
	leaf, reg, ok := ParseMSRCPUIDRequest(req)
	if !ok || leaf != 0x8000001F || reg != 1 {
		t.Fatalf("request decode: leaf=%#x reg=%d ok=%v", leaf, reg, ok)
	}
	resp := MSRCPUIDResponse(51) // C-bit position
	val, ok := ParseMSRCPUIDResponse(resp)
	if !ok || val != 51 {
		t.Fatalf("response decode: %d %v", val, ok)
	}
	// Cross-decoding must fail.
	if _, _, ok := ParseMSRCPUIDRequest(resp); ok {
		t.Fatal("response decoded as request")
	}
	if _, ok := ParseMSRCPUIDResponse(req); ok {
		t.Fatal("request decoded as response")
	}
}

func TestAllRegistersShareable(t *testing.T) {
	mem := sevMem(t, 6)
	g, err := New(mem, gpa)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(Exit{
		Code: ExitIOIO,
		RAX:  1, RBX: 2, RCX: 3, RDX: 4,
		ShareRAX: true, ShareRBX: true, ShareRCX: true, ShareRDX: true,
	}); err != nil {
		t.Fatal(err)
	}
	v, err := ReadFromHost(mem, gpa)
	if err != nil {
		t.Fatal(err)
	}
	if v.RAX != 1 || v.RBX != 2 || v.RCX != 3 || v.RDX != 4 {
		t.Fatalf("registers lost: %+v", v)
	}
}
