package ghcb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
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

// The hypervisor decodes seven fields out of the protocol span it reads
// onto its own stack, and returns the view by value: nothing allocates.
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
	}); n != 0 {
		t.Fatalf("ReadFromHost allocates %v times, want 0", n)
	}
}

// TestReadFromHostChecksTheWholePage: the host reads only the span and the
// version word, but a GHCB page that does not lie wholly in guest memory
// is still refused, as the whole-page read refused it.
func TestReadFromHostChecksTheWholePage(t *testing.T) {
	mem := sevMem(t, 1)
	for _, at := range []uint64{mem.Size() - guestmem.PageSize/2, mem.Size(), ^uint64(0) - 0x100} {
		if _, err := ReadFromHost(mem, at); !errors.Is(err, guestmem.ErrOutOfRange) {
			t.Errorf("GHCB at %#x: %v, want ErrOutOfRange", at, err)
		}
	}
}

// writeFullPage is the reference Write is held to, and what it was until
// an exit moved only the protocol span: build a zeroed page holding the
// exit's fields, its valid bitmap and the version, and write it whole.
func writeFullPage(g *GHCB, e Exit) error {
	page := make([]byte, guestmem.PageSize)
	le := binary.LittleEndian
	bm := page[offValidBM : offValidBM+16]
	set := func(off int, v uint64) {
		le.PutUint64(page[off:], v)
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
	le.PutUint16(page[offVersion:], 2)
	return g.mem.GuestWrite(g.gpa, page, false)
}

// checkExchange decodes data as a sequence of exits — a share-flag byte
// and seven quadwords each — with, when the flag byte's bit 4 is set, a
// host store of up to 16 bytes somewhere inside the protocol span after
// it. It stages every exit with Write on one guest and with writeFullPage
// on another, makes the same host stores on both, and requires after each
// exit that the host decodes exactly the registers the exit shared and
// that the two pages are byte-identical.
func checkExchange(t *testing.T, data []byte) {
	t.Helper()
	span, full := sevMem(t, 1), sevMem(t, 1)
	gs, err := New(span, gpa)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := New(full, gpa)
	if err != nil {
		t.Fatal(err)
	}
	next := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	le := binary.LittleEndian
	for len(data) > 0 {
		flags := next(1)[0]
		q := next(7 * 8)
		e := Exit{
			Code: le.Uint64(q[0:]), Info1: le.Uint64(q[8:]), Info2: le.Uint64(q[16:]),
			RAX: le.Uint64(q[24:]), RBX: le.Uint64(q[32:]), RCX: le.Uint64(q[40:]), RDX: le.Uint64(q[48:]),
			ShareRAX: flags&1 != 0, ShareRBX: flags&2 != 0, ShareRCX: flags&4 != 0, ShareRDX: flags&8 != 0,
		}
		if err := gs.Write(e); err != nil {
			t.Fatal(err)
		}
		if err := writeFullPage(gf, e); err != nil {
			t.Fatal(err)
		}
		v, err := ReadFromHost(span, gpa)
		if err != nil {
			t.Fatal(err)
		}
		want := HostView{Code: e.Code, Info1: e.Info1, Info2: e.Info2,
			HasRAX: e.ShareRAX, HasRBX: e.ShareRBX, HasRCX: e.ShareRCX, HasRDX: e.ShareRDX}
		for _, r := range []struct {
			shared   bool
			src, dst *uint64
		}{{e.ShareRAX, &e.RAX, &want.RAX}, {e.ShareRBX, &e.RBX, &want.RBX}, {e.ShareRCX, &e.RCX, &want.RCX}, {e.ShareRDX, &e.RDX, &want.RDX}} {
			if r.shared {
				*r.dst = *r.src
			}
		}
		if v != want {
			t.Fatalf("exit %+v decoded as %+v, want %+v", e, v, want)
		}
		if vf, err := ReadFromHost(full, gpa); err != nil || vf != v {
			t.Fatalf("the full-page reference decodes %+v (%v), the span write %+v", vf, err, v)
		}
		ps, err := span.HostRead(gpa, guestmem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := full.HostRead(gpa, guestmem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ps, pf) {
			t.Fatalf("after exit %+v the page differs from the full-page reference's", e)
		}
		if flags&0x10 != 0 {
			where := next(3)
			store := next(int(where[2]) % 17)
			at := gpa + spanStart + uint64(le.Uint16(where))%uint64(spanLen-len(store)+1)
			for _, m := range []*guestmem.Memory{span, full} {
				if err := m.HostWrite(at, store); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// exchangeSeeds are exit sequences for checkExchange: every share
// combination, a host store over the valid bitmap, and stores over the
// registers an exit then does not share.
func exchangeSeeds() [][]byte {
	rng := rand.New(rand.NewSource(3))
	exit := func(flags byte, store ...byte) []byte {
		b := make([]byte, 1+7*8)
		rng.Read(b)
		b[0] = flags
		return append(b, store...)
	}
	var all []byte
	for flags := byte(0); flags < 16; flags++ {
		all = append(all, exit(flags)...)
	}
	validBM := []byte{(offValidBM - spanStart) & 0xFF, (offValidBM - spanStart) >> 8, 16}
	for i := 0; i < 4; i++ {
		validBM = append(validBM, 0xFF, 0xFF, 0xFF, 0xFF)
	}
	return [][]byte{
		nil,
		exit(0x1, 0),
		all,
		append(exit(0x1F, validBM...), exit(0x0)...),
		append(append(exit(0x1F, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8), // over RAX, which the next exit does not share
			exit(0x12, (offRBX-spanStart)&0xFF, (offRBX-spanStart)>>8, 8, 9, 9, 9, 9, 9, 9, 9, 9)...), // over RBX, likewise
			exit(0x1)...),
	}
}

// TestWriteMatchesFullPageReference runs the seed sequences through the
// exchange check without the fuzzer.
func TestWriteMatchesFullPageReference(t *testing.T) {
	for _, seed := range exchangeSeeds() {
		checkExchange(t, seed)
	}
}

// FuzzGHCBExchange holds the span exchange to the full-page reference on
// random exits, share flags and host stores inside the span.
func FuzzGHCBExchange(f *testing.F) {
	for _, seed := range exchangeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		checkExchange(t, data)
	})
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
