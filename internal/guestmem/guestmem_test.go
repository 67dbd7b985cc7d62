package guestmem

import (
	"bytes"
	"errors"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/rmp"
)

func key(b byte) []byte {
	k := make([]byte, 16)
	for i := range k {
		k[i] = b
	}
	return k
}

func TestSharedWriteRead(t *testing.T) {
	m := New(1 << 20)
	data := []byte("plain text boot component")
	if err := m.HostWrite(0x1000, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.HostRead(0x1000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("host read of shared page differs")
	}
	gr, err := m.GuestRead(0x1000, len(data), false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gr, data) {
		t.Fatal("guest non-C-bit read of shared page differs")
	}
}

func TestZeroPagesReadAsZero(t *testing.T) {
	m := New(1 << 20)
	got, err := m.HostRead(0x5000, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unbacked page not zero")
		}
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	m := New(1 << 20)
	if err := m.HostWrite(1<<20-1, []byte{1, 2}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if _, err := m.HostRead(1<<21, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestCBitWriteRequiresKey(t *testing.T) {
	m := New(1 << 20)
	if err := m.GuestWrite(0x1000, []byte("secret"), true); !errors.Is(err, ErrNoKey) {
		t.Fatalf("err = %v, want ErrNoKey", err)
	}
}

func TestPrivatePageCiphertextFromHost(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(1), 1)
	secret := []byte("attestation private key material goes here")
	if err := m.GuestWrite(0x2000, secret, true); err != nil {
		t.Fatal(err)
	}
	// Guest C-bit read sees plain text.
	pt, err := m.GuestRead(0x2000, len(secret), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, secret) {
		t.Fatal("guest cannot read back its own private data")
	}
	// Host read sees ciphertext.
	ct, err := m.HostRead(0x2000, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, secret) {
		t.Fatal("host read leaked plain text of a private page")
	}
	// Guest read *without* C-bit also sees ciphertext.
	nc, err := m.GuestRead(0x2000, len(secret), false)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(nc, secret) {
		t.Fatal("non-C-bit guest read leaked plain text")
	}
}

func TestSamePlaintextDifferentAddressDifferentCiphertext(t *testing.T) {
	// Paper §6.2/§7.1: identical plain text at different physical locations
	// has different ciphertext — this is what breaks dedup.
	m := New(1 << 20)
	m.SetKey(key(2), 1)
	data := bytes.Repeat([]byte("dedup-me "), 100)
	if err := m.GuestWrite(0x3000, data, true); err != nil {
		t.Fatal(err)
	}
	if err := m.GuestWrite(0x8000, data, true); err != nil {
		t.Fatal(err)
	}
	a, _ := m.HostRead(0x3000, len(data))
	b, _ := m.HostRead(0x8000, len(data))
	if bytes.Equal(a, b) {
		t.Fatal("identical plain text at different addresses produced identical ciphertext")
	}
}

func TestDifferentGuestsDifferentCiphertext(t *testing.T) {
	data := bytes.Repeat([]byte("shared kernel page "), 50)
	mk := func(k byte, asid uint32) []byte {
		m := New(1 << 20)
		m.SetKey(key(k), asid)
		tb := rmp.New()
		m.AttachRMP(tb, asid)
		tb.AssignValidated(0x3000, asid)
		if err := m.GuestWrite(0x3000, data, true); err != nil {
			t.Fatal(err)
		}
		ct, _ := m.HostRead(0x3000, len(data))
		return ct
	}
	if bytes.Equal(mk(1, 1), mk(2, 2)) {
		t.Fatal("different guests produced identical ciphertext for the same page")
	}
}

func TestSNPBlocksHostWriteToAssignedPage(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(3), 1)
	tb := rmp.New()
	m.AttachRMP(tb, 5)
	tb.AssignValidated(0x4000, 5)
	if err := m.GuestWrite(0x4000, []byte("guest data"), true); err != nil {
		t.Fatal(err)
	}
	if err := m.HostWrite(0x4000, []byte("evil")); !errors.Is(err, rmp.ErrHostWrite) {
		t.Fatalf("host write to assigned page: err = %v, want ErrHostWrite", err)
	}
	// The guest data is intact.
	pt, _ := m.GuestRead(0x4000, 10, true)
	if !bytes.Equal(pt, []byte("guest data")) {
		t.Fatal("guest data corrupted by blocked host write")
	}
}

func TestSNPUnvalidatedAccessIsVC(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(4), 1)
	tb := rmp.New()
	m.AttachRMP(tb, 6)
	tb.Assign(0x5000, 6) // assigned but NOT validated
	if err := m.GuestWrite(0x5000, []byte("x"), true); !errors.Is(err, rmp.ErrVC) {
		t.Fatalf("err = %v, want ErrVC", err)
	}
	if _, err := m.GuestRead(0x5000, 1, true); !errors.Is(err, rmp.ErrVC) {
		t.Fatalf("err = %v, want ErrVC", err)
	}
}

func TestSNPRemapDetectedOnNextAccess(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(5), 1)
	tb := rmp.New()
	m.AttachRMP(tb, 7)
	tb.AssignValidated(0x6000, 7)
	if err := m.GuestWrite(0x6000, []byte("data"), true); err != nil {
		t.Fatal(err)
	}
	tb.Remap(0x6000)
	if _, err := m.GuestRead(0x6000, 4, true); !errors.Is(err, rmp.ErrVC) {
		t.Fatalf("access after remap: err = %v, want ErrVC", err)
	}
}

func TestLaunchUpdateEncryptsAndReturnsPlaintext(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(6), 1)
	component := bytes.Repeat([]byte("boot verifier code "), 700) // ~13 KiB
	if err := m.HostWrite(0x7000, component); err != nil {
		t.Fatal(err)
	}
	pt, err := m.LaunchUpdate(0x7000, len(component))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, component) {
		t.Fatal("LaunchUpdate returned wrong plain text for measurement")
	}
	// After pre-encryption the host sees ciphertext...
	ct, _ := m.HostRead(0x7000, len(component))
	if bytes.Equal(ct, component) {
		t.Fatal("pre-encrypted component still visible to host")
	}
	// ...and the guest can execute it through the C-bit mapping.
	g, err := m.GuestRead(0x7000, len(component), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, component) {
		t.Fatal("guest cannot read pre-encrypted component")
	}
}

func TestLaunchUpdateValidatesUnderSNP(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(7), 1)
	tb := rmp.New()
	m.AttachRMP(tb, 8)
	if err := m.HostWrite(0x8000, []byte("root of trust")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LaunchUpdate(0x8000, 13); err != nil {
		t.Fatal(err)
	}
	// Launch-updated pages are assigned+validated: guest access works
	// without pvalidate, host writes are blocked.
	if _, err := m.GuestRead(0x8000, 13, true); err != nil {
		t.Fatalf("guest access to launch-updated page: %v", err)
	}
	if err := m.HostWrite(0x8000, []byte("evil")); !errors.Is(err, rmp.ErrHostWrite) {
		t.Fatalf("host write after launch update: err = %v, want blocked", err)
	}
}

func TestGuestCopySharedToPrivate(t *testing.T) {
	m := New(4 << 20)
	m.SetKey(key(8), 1)
	// Simulate measured direct boot: host loads a component into shared
	// memory; guest copies it into C-bit memory.
	component := bytes.Repeat([]byte{0xCD}, 3*PageSize+123)
	if err := m.HostWrite(0x10000, component); err != nil {
		t.Fatal(err)
	}
	if err := m.GuestCopy(0x200000, 0x10000, len(component), true, false); err != nil {
		t.Fatal(err)
	}
	got, err := m.GuestRead(0x200000, len(component), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, component) {
		t.Fatal("copied component differs")
	}
	// Host sees ciphertext at the destination.
	ct, _ := m.HostRead(0x200000, len(component))
	if bytes.Equal(ct, component) {
		t.Fatal("private copy visible to host")
	}
}

func TestGuestCopyAliasingIsCopyOnWrite(t *testing.T) {
	m := New(4 << 20)
	m.SetKey(key(9), 1)
	src := bytes.Repeat([]byte{7}, 2*PageSize)
	if err := m.HostWriteAliased(0x10000, src); err != nil {
		t.Fatal(err)
	}
	if err := m.GuestCopy(0x100000, 0x10000, len(src), true, false); err != nil {
		t.Fatal(err)
	}
	if m.Stats().AliasedPages == 0 {
		t.Fatal("aligned copy did not alias any pages")
	}
	// Mutating the destination must not corrupt the source.
	if err := m.GuestWrite(0x100000, []byte{42}, true); err != nil {
		t.Fatal(err)
	}
	orig, _ := m.HostRead(0x10000, 1)
	if orig[0] != 7 {
		t.Fatal("copy-on-write violated: source changed")
	}
	got, _ := m.GuestRead(0x100000, 1, true)
	if got[0] != 42 {
		t.Fatal("destination write lost")
	}
}

func TestHostWriteAliasedMatchesHostWrite(t *testing.T) {
	a, b := New(1<<20), New(1<<20)
	data := bytes.Repeat([]byte("kernel segment "), 1000)
	if err := a.HostWrite(0x1000, data); err != nil {
		t.Fatal(err)
	}
	if err := b.HostWriteAliased(0x1000, data); err != nil {
		t.Fatal(err)
	}
	ra, _ := a.HostRead(0x1000, len(data))
	rb, _ := b.HostRead(0x1000, len(data))
	if !bytes.Equal(ra, rb) {
		t.Fatal("aliased write produced different contents")
	}
}

func TestCBitReadOfSharedPageIsGarbage(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(10), 1)
	data := []byte("host-provided plain text")
	if err := m.HostWrite(0x2000, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.GuestRead(0x2000, len(data), true)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("C-bit read of a shared page returned the plain text; must decrypt-garble")
	}
}

// TestReadsAtAnySpanMatchWholePageReads: a read that starts or ends inside
// a page whose state does not match the mapping takes the pooled-scratch
// transform, a whole such page the transform straight into the output;
// both must return the bytes a page-at-a-time read of the same pages does,
// HostReadInto the bytes HostRead does, and neither allocate per page.
func TestReadsAtAnySpanMatchWholePageReads(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(11), 3)
	const base = 0x4000 // pages: private, shared, private, untouched, private and never written
	for i, private := range []bool{true, false, true} {
		if err := m.GuestWrite(base+uint64(i)*PageSize, bytes.Repeat([]byte{byte('a' + i)}, PageSize), private); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.LaunchUpdateFlip(base+4*PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	whole := func(read func(gpa uint64) ([]byte, error)) []byte {
		var all []byte
		for i := uint64(0); i < 5; i++ {
			page, err := read(base + i*PageSize)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, page...)
		}
		return all
	}
	host := whole(func(gpa uint64) ([]byte, error) { return m.HostRead(gpa, PageSize) })
	for _, sp := range []struct{ off, n int }{{0, 5 * PageSize}, {1, 5*PageSize - 2}, {100, 50}, {PageSize - 3, 7}, {PageSize + 9, 2*PageSize + 1}, {3 * PageSize, 2 * PageSize}, {17, 0}} {
		got, err := m.HostRead(base+uint64(sp.off), sp.n)
		if err != nil || !bytes.Equal(got, host[sp.off:sp.off+sp.n]) {
			t.Fatalf("HostRead(+%d, %d) differs from the pages read one by one (err %v)", sp.off, sp.n, err)
		}
		into := bytes.Repeat([]byte{0xEE}, sp.n)
		if err := m.HostReadInto(base+uint64(sp.off), into); err != nil || !bytes.Equal(into, got) {
			t.Fatalf("HostReadInto(+%d, %d) differs from HostRead (err %v)", sp.off, sp.n, err)
		}
		for _, cbit := range []bool{false, true} {
			guest := whole(func(gpa uint64) ([]byte, error) { return m.GuestRead(gpa, PageSize, cbit) })
			if got, err := m.GuestRead(base+uint64(sp.off), sp.n, cbit); err != nil || !bytes.Equal(got, guest[sp.off:sp.off+sp.n]) {
				t.Fatalf("GuestRead(+%d, %d, cbit=%v) differs from the pages read one by one (err %v)", sp.off, sp.n, cbit, err)
			}
		}
	}
	if err := m.HostReadInto(1<<20-PageSize+1, make([]byte, PageSize)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("HostReadInto past the guest: err = %v, want ErrOutOfRange", err)
	}
	var buf [PageSize]byte
	if n := testing.AllocsPerRun(50, func() {
		if err := m.HostReadInto(base+5, buf[:]); err != nil { // a private page's tail, a shared page's head
			t.Fatal(err)
		}
	}); n > 2 { // what cipher.NewCTR allocates; no page
		t.Fatalf("HostReadInto of two pages allocates %v times", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := m.HostRead(base, 3*PageSize); err != nil {
			t.Fatal(err)
		}
	}); n > 5 { // the result, and cipher.NewCTR's two for each private page; no page each
		t.Fatalf("HostRead of three pages allocates %v times", n)
	}
}

func TestSEVMetadataAccounting(t *testing.T) {
	m := New(256 << 20)
	if m.SEVMetadataBytes() != 0 {
		t.Fatal("fresh guest has SEV metadata")
	}
	m.SetKey(key(11), 1)
	m.AttachRMP(rmp.New(), 1)
	m.NotePinned(int(m.Size()))
	got := m.SEVMetadataBytes()
	// §6.3: ~16 KiB of extra per-guest memory.
	if got < 1024 || got > 64*1024 {
		t.Fatalf("SEV metadata %d bytes, want within a few KiB of the paper's ~16K", got)
	}
}

func TestStats(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(12), 1)
	if err := m.HostWrite(0, make([]byte, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LaunchUpdate(0, PageSize); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.ResidentPages != 3 {
		t.Fatalf("ResidentPages = %d, want 3", s.ResidentPages)
	}
	if s.PrivatePages != 1 {
		t.Fatalf("PrivatePages = %d, want 1", s.PrivatePages)
	}
}

func TestWriteSpanningPages(t *testing.T) {
	m := New(1 << 20)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	if err := m.HostWrite(PageSize-100, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.HostRead(PageSize-100, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("page-spanning write corrupted")
	}
}

func TestGuestWriteAliasedSharesBacking(t *testing.T) {
	m := New(4 << 20)
	m.SetKey(key(20), 1)
	// A page-aligned subrange of a larger artifact: the leading page
	// must stay out of the guest.
	art := artifact.Of(append(bytes.Repeat([]byte{7}, PageSize), bytes.Repeat([]byte{5}, 4*PageSize)...))
	buf := art.Bytes()[PageSize:]
	if err := m.GuestWriteArtifact(0x100000, art, PageSize, len(buf), true); err != nil {
		t.Fatal(err)
	}
	if m.Stats().AliasedPages < 4 {
		t.Fatalf("aliased pages %d, want >= 4", m.Stats().AliasedPages)
	}
	got, err := m.GuestRead(0x100000, len(buf), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("aliased guest write read back wrong")
	}
	// COW: writing to the mapped page must not touch the source buffer.
	if err := m.GuestWrite(0x100000, []byte{9}, true); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Fatal("source artifact mutated through alias")
	}
}

func TestGuestWriteAliasedRequiresKeyForCbit(t *testing.T) {
	m := New(1 << 20)
	if err := m.GuestWriteArtifact(0, artifact.Of(make([]byte, PageSize)), 0, PageSize, true); !errors.Is(err, ErrNoKey) {
		t.Fatalf("err = %v, want ErrNoKey", err)
	}
}

func TestShareRangeMakesHostWritable(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(21), 9)
	tb := rmp.New()
	m.AttachRMP(tb, 9)
	tb.AssignValidated(0x4000, 9)
	if err := m.GuestWrite(0x4000, []byte("private"), true); err != nil {
		t.Fatal(err)
	}
	if err := m.HostWrite(0x4000, []byte("x")); err == nil {
		t.Fatal("private page host-writable before sharing")
	}
	if err := m.ShareRange(0x4000, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := m.HostWrite(0x4000, []byte("host data")); err != nil {
		t.Fatalf("shared page still blocked: %v", err)
	}
	if m.IsPrivate(0x4000) {
		t.Fatal("page still marked private after sharing")
	}
}

func TestHostRestoreCiphertextValidation(t *testing.T) {
	m := New(1 << 20)
	// No key: must fail.
	if err := m.HostRestoreCiphertext(0x1000, make([]byte, PageSize)); !errors.Is(err, ErrNoKey) {
		t.Fatalf("err = %v, want ErrNoKey", err)
	}
	m.SetKey(key(22), 1)
	// Unaligned and partial restores are rejected.
	if err := m.HostRestoreCiphertext(0x1001, make([]byte, PageSize)); err == nil {
		t.Fatal("unaligned restore accepted")
	}
	if err := m.HostRestoreCiphertext(0x1000, make([]byte, 100)); err == nil {
		t.Fatal("partial-page restore accepted")
	}
}

func TestHostRestoreCiphertextRoundTrip(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(23), 7)
	secret := bytes.Repeat([]byte("state "), 700)[:PageSize]
	if err := m.GuestWrite(0x2000, secret, true); err != nil {
		t.Fatal(err)
	}
	ct, err := m.HostRead(0x2000, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the ciphertext into the SAME page of a guest with the SAME
	// key+ASID: the original plain text comes back.
	m2 := New(1 << 20)
	m2.SetKey(key(23), 7)
	if err := m2.HostRestoreCiphertext(0x2000, ct); err != nil {
		t.Fatal(err)
	}
	pt, err := m2.GuestRead(0x2000, PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, secret) {
		t.Fatal("same-key restore did not reproduce plain text")
	}
	// Different ASID: garbage.
	m3 := New(1 << 20)
	m3.SetKey(key(23), 8)
	if err := m3.HostRestoreCiphertext(0x2000, ct); err != nil {
		t.Fatal(err)
	}
	pt3, _ := m3.GuestRead(0x2000, PageSize, true)
	if bytes.Equal(pt3, secret) {
		t.Fatal("cross-ASID restore reproduced plain text; tweak missing")
	}
}

func TestGuestCopyRejectsOverlap(t *testing.T) {
	m := New(1 << 20)
	if err := m.HostWrite(0x1000, make([]byte, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.GuestCopy(0x2000, 0x1000, 2*PageSize, false, false); err == nil {
		t.Fatal("overlapping copy accepted")
	}
}

// TestGuestViewIsGuestRead: GuestView hands back GuestRead's bytes and
// GuestRead's refusals — a view of the artifact where the range still
// aliases one in the reading state, a view of the page where it lies in one
// page in the reading state, a copy where neither holds.
func TestGuestViewIsGuestRead(t *testing.T) {
	const asid = 2
	art := artifact.Of(bytes.Repeat([]byte("kernel text "), 3*PageSize/12+1)[:3*PageSize])
	m := New(1 << 20)
	m.SetKey(key(4), asid)
	tb := rmp.New()
	m.AttachRMP(tb, asid)
	if err := tb.PvalidateRangeSkipValidated(0, 0x40000, PageSize, asid); err != nil {
		t.Fatal(err)
	}
	if err := m.GuestWriteArtifact(0x10000, art, 0, art.Len(), true); err != nil {
		t.Fatal(err)
	}
	if err := m.HostWrite(0x50000, []byte("written by the host")); err != nil {
		t.Fatal(err)
	}
	if err := m.HostWrite(0x51ff0, []byte("across a page boundary")); err != nil {
		t.Fatal(err)
	}
	if err := m.GuestWrite(0x20000, []byte("private"), true); err != nil {
		t.Fatal(err)
	}
	page := func(gpa uint64) []byte { return m.look(gpa / PageSize).readable()[gpa%PageSize:] }
	for _, c := range []struct {
		name string
		gpa  uint64
		n    int
		cbit bool
		own  []byte // what the view must be; nil for a copy
	}{
		{"aliased artifact, private mapping", 0x10000 + 100, 2 * PageSize, true, art.Bytes()[100:]},
		{"aliased artifact, shared mapping: ciphertext", 0x10000 + 100, 2 * PageSize, false, nil},
		{"page without provenance", 0x50000, 19, false, page(0x50000)},
		{"untouched page", 0x60000 + 8, 64, false, page(0x60008)},
		{"private page, private mapping", 0x20000, 7, true, page(0x20000)},
		{"private page, shared mapping: ciphertext", 0x20000, 7, false, nil},
		{"two pages without provenance", 0x51ff0, 22, false, nil},
		{"unvalidated private page", 0x80000, 64, true, nil},
		{"past the end", m.Size() - 10, 20, false, nil},
	} {
		want, wantErr := m.GuestRead(c.gpa, c.n, c.cbit)
		got, view, err := m.GuestView(c.gpa, c.n, c.cbit)
		switch {
		case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
			t.Errorf("%s: GuestView err %v, GuestRead err %v", c.name, err, wantErr)
		case !bytes.Equal(got, want):
			t.Errorf("%s: GuestView bytes differ from GuestRead's", c.name)
		case view != (c.own != nil):
			t.Errorf("%s: view = %v, want %v", c.name, view, c.own != nil)
		case view && &got[0] != &c.own[0]:
			t.Errorf("%s: the view is not the source's own bytes", c.name)
		case view && cap(got) != len(got):
			t.Errorf("%s: the view has room to append into the source", c.name)
		}
	}
}

// TestScansMatchByteLoops holds allZero and bytes.Equal, which the cold
// path's scans use, to the byte loops they replaced, at every length up to
// a page, with one byte differing at the first position, the last, and
// either side of a word boundary.
func TestScansMatchByteLoops(t *testing.T) {
	allZeroLoop := func(b []byte) bool {
		for _, v := range b {
			if v != 0 {
				return false
			}
		}
		return true
	}
	equalLoop := func(a, b []byte) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	zeros := make([]byte, PageSize)
	a := bytes.Repeat([]byte("scan"), PageSize/4)
	b := append([]byte(nil), a...)
	for n := 0; n <= PageSize; n++ {
		if allZero(zeros[:n]) != allZeroLoop(zeros[:n]) || bytes.Equal(a[:n], b[:n]) != equalLoop(a[:n], b[:n]) {
			t.Fatalf("length %d, no difference: scans disagree with the byte loops", n)
		}
		if n > 0 && bytes.Equal(a[:n], b[:n-1]) != equalLoop(a[:n], b[:n-1]) {
			t.Fatalf("lengths %d and %d: bytes.Equal disagrees with the byte loop", n, n-1)
		}
		for _, at := range []int{0, n - 1, (n - 1) &^ 7, min(7, n-1)} {
			if at < 0 {
				continue
			}
			zeros[at], b[at] = 1, b[at]^0x80
			if allZero(zeros[:n]) != allZeroLoop(zeros[:n]) || bytes.Equal(a[:n], b[:n]) != equalLoop(a[:n], b[:n]) {
				t.Fatalf("length %d, byte %d differs: scans disagree with the byte loops", n, at)
			}
			zeros[at], b[at] = 0, b[at]^0x80
		}
	}
}
