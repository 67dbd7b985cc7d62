package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// TestSealedLenIsTheEncodingsLength: the fabric is charged SealedLen for a
// container nobody encodes, so it must be the length the encoding would
// have had.
func TestSealedLenIsTheEncodingsLength(t *testing.T) {
	synthetic := func(n int) *Image {
		img := &Image{Size: 1 << 20, Pages: map[uint64][]byte{}, Private: map[uint64]bool{}}
		for pn := 0; pn < n; pn++ {
			img.Pages[uint64(pn)] = make([]byte, guestmem.PageSize)
		}
		return img
	}
	for _, img := range []*Image{synthetic(0), synthetic(1), captureSEV(t)} {
		sealed, err := EncodeSealed(img)
		if err != nil {
			t.Fatal(err)
		}
		if got := SealedLen(len(img.Pages)); got != len(sealed) {
			t.Fatalf("SealedLen(%d) = %d, EncodeSealed produced %d bytes", len(img.Pages), got, len(sealed))
		}
	}
}

// forkPage is one entry of a container's page table, listed page by page.
type forkPage struct {
	pn      uint64
	private bool
}

// pageList expands a container's page runs into one entry per page.
func pageList(f *Fork) []forkPage {
	var pages []forkPage
	f.Src.PageRuns(func(pn, count uint64, private bool) {
		for i := uint64(0); i < count; i++ {
			pages = append(pages, forkPage{pn: pn + i, private: private})
		}
	})
	return pages
}

// residentPages is m's page table as the ciphertext capture lists it, from
// the guest's own pages rather than from any fork source.
func residentPages(t *testing.T, m *kvm.Machine) []forkPage {
	t.Helper()
	exports, err := m.Mem.ExportPages()
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]forkPage, len(exports))
	for i, e := range exports {
		pages[i] = forkPage{pn: e.PN, private: e.Private}
	}
	return pages
}

// sealPageList is the reference Fork.Seal is held to, and what it was
// until the page table became the source's runs: build the whole page
// list's bytes in one buffer and hash it once. It takes the page list as
// given.
func sealPageList(f *Fork, pages []forkPage) [32]byte {
	root, keyID := f.Src.Root(), f.Src.KeyID()
	b := make([]byte, 0, wireHeaderLen+len(pages)*pageEntryLen+3*sha256.Size)
	b = appendWireHeader(b, f.SEV, f.Src.Size(), len(pages))
	for _, fp := range pages {
		b = appendPageEntry(b, fp.pn, fp.private)
	}
	b = append(b, root[:]...)
	b = append(b, f.Digest[:]...)
	b = append(b, keyID[:]...)
	return sha256.Sum256(b)
}

// mustSeal seals a container the test expects to be intact, and holds the
// seal to the page-list reference over the container's own runs.
func mustSeal(t *testing.T, f *Fork) [32]byte {
	t.Helper()
	seal, err := f.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if ref := sealPageList(f, pageList(f)); seal != ref {
		t.Fatalf("Seal() = %x, the page-list reference hashes to %x", seal[:8], ref[:8])
	}
	return seal
}

// TestSealMatchesPageListReference holds the streamed seal to the
// page-list reference fed the page table of the captured guest itself, on
// the containers a capture can produce: pages copied into the dirty blob
// and pages aliasing an artifact, keyless guests, a guest with nothing
// resident, and the re-export of a forked child — untouched, whose every
// page is an extent of its parent's, and after a write of its own.
func TestSealMatchesPageListReference(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		check := func(name string, m *kvm.Machine) *Fork {
			f, err := CaptureFork(p, m, [32]byte{4, 5, 6})
			if err != nil {
				t.Fatal(err)
			}
			seal, err := f.Seal()
			if err != nil {
				t.Fatal(err)
			}
			if want := sealPageList(f, residentPages(t, m)); seal != want {
				t.Errorf("%s: Seal() = %x, the page-list reference hashes to %x", name, seal[:8], want[:8])
			}
			return f
		}
		kernel := artifact.Of(payload(9))
		donor := sevGuest(t, p, h, payload(7))
		if err := donor.Mem.GuestWriteArtifact(0x40000, kernel, 0, kernel.Len(), true); err != nil {
			t.Fatal(err)
		}
		if err := donor.Mem.ShareRange(0x80000, guestmem.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := donor.Mem.HostWrite(0x80000, []byte("shared page")); err != nil {
			t.Fatal(err)
		}
		_, err := donor.Launch.LaunchFinish(p) // a fork's donor has finished its launch
		if err != nil {
			t.Fatal(err)
		}
		parent := check("SEV guest aliasing an artifact", donor)

		// Keyless guests of every page count up to two buffers' worth and
		// more, so the page table ends, and the fields after it fall, at
		// every position of the seal's buffer.
		for n := 1; n <= 2*64+8; n++ {
			plain := h.NewMachine(p, 1<<20, sev.None)
			if err := plain.Mem.HostWrite(0x10000, bytes.Repeat(payload(3), 17)[:n*guestmem.PageSize]); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("keyless guest of %d pages", n), plain)
		}
		if f := check("empty guest", h.NewMachine(p, 1<<20, sev.None)); f.Src.NumPages() != 0 {
			t.Fatalf("empty guest captured %d pages", f.Src.NumPages())
		}

		pol := sev.DefaultPolicy()
		pol.NoKeySharing = false
		child := h.NewMachine(p, parent.Src.Size(), sev.SNP)
		child.PrepSEVHost(p)
		if child.Launch, err = h.PSP.LaunchStartFork(p, child.Mem, donor.Launch, sev.SNP, pol); err != nil {
			t.Fatal(err)
		}
		if err := parent.Restore(p, child); err != nil {
			t.Fatal(err)
		}
		if f := check("re-export of an untouched forked child", child); f.Src.Blob() != nil {
			t.Fatal("re-export of an untouched child copied pages")
		}
		if err := child.Mem.GuestWrite(0x41000, []byte("the child's own write"), true); err != nil {
			t.Fatal(err)
		}
		check("re-export of a forked child after a write", child)
	})
}

// TestSealCoversEveryField: the seal is a function of the container alone,
// and every field a fork of it aliases or inherits moves it. Fields that
// live inside the fork source are mutated the only way they can differ in
// practice — by capturing a guest that differs in just that respect —
// except the page table's entries, which the seal's page-table writer is
// fed directly.
func TestSealCoversEveryField(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		digest := [32]byte{1, 2, 3}
		capture := func(m *kvm.Machine) *Fork {
			f, err := CaptureFork(p, m, digest)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		plainGuest := func(size uint64) *kvm.Machine {
			m := h.NewMachine(p, size, sev.None)
			if err := m.Mem.HostWrite(0x10000, payload(7)); err != nil {
				t.Fatal(err)
			}
			return m
		}

		// The SEV guest holds both kinds of page a booted guest has: ones it
		// wrote (copied into the container's dirty blob) and ones that still
		// alias an artifact (named by the container, not copied).
		kernel := artifact.Of(payload(9))
		aliasingGuest := func() *kvm.Machine {
			m := sevGuest(t, p, h, payload(7))
			if err := m.Mem.GuestWriteArtifact(0x40000, kernel, 0, kernel.Len(), true); err != nil {
				t.Fatal(err)
			}
			return m
		}

		base := capture(aliasingGuest())
		want := mustSeal(t, base)
		if again := mustSeal(t, base); again != want {
			t.Fatal("two seals of one container differ")
		}
		if mustSeal(t, capture(plainGuest(1<<20))) != mustSeal(t, capture(plainGuest(1<<20))) {
			t.Fatal("equal keyless containers seal differently")
		}

		// In-place mutations of the base container. Each is its own inverse:
		// applied twice, the seal must come back.
		inPlace := map[string]func(){
			"SEV flag":     func() { base.SEV = !base.SEV },
			"donor digest": func() { base.Digest[31] ^= 1 },
		}
		for name, flip := range inPlace {
			flip()
			if got := mustSeal(t, base); got == want {
				t.Errorf("%s: seal unchanged", name)
			}
			flip()
			if got := mustSeal(t, base); got != want {
				t.Errorf("%s: seal did not return after the mutation was undone", name)
			}
		}

		// The page table: the seal's writer driven with run lists that list
		// the same pages but for one entry. Runs that only split a run
		// differently write the same table.
		type pageRun struct {
			pn, count uint64
			private   bool
		}
		table := func(runs ...pageRun) [32]byte {
			s := sealStream{h: sha256.New()}
			for _, r := range runs {
				s.pages(r.pn, r.count, r.private)
			}
			s.flush()
			return [32]byte(s.h.Sum(nil))
		}
		tail := pageRun{300, 10, true}
		baseTable := table(pageRun{0, 200, false}, tail)
		for name, runs := range map[string][]pageRun{
			"one page number": {{0, 199, false}, {200, 1, false}, tail},
			"one private bit": {{0, 100, false}, {100, 1, true}, {101, 99, false}, tail},
		} {
			if table(runs...) == baseTable {
				t.Errorf("%s: page table unchanged", name)
			}
		}
		if table(pageRun{0, 64, false}, pageRun{64, 136, false}, tail) != baseTable {
			t.Error("splitting a run changed the page table")
		}

		// Guest size: two keyless guests with the same resident plain text.
		small, large := capture(plainGuest(1<<20)), capture(plainGuest(2<<20))
		if small.Src.Root() != large.Src.Root() || small.Src.KeyID() != large.Src.KeyID() {
			t.Fatal("size case differs in more than size")
		}
		if mustSeal(t, small) == mustSeal(t, large) {
			t.Error("guest size: seal unchanged")
		}

		// Key identity: a second launch of the same content draws a fresh key
		// and nothing else differs — the re-seeded publication of an image.
		other := capture(aliasingGuest())
		if other.Src.Root() != base.Src.Root() || other.Src.NumPages() != base.Src.NumPages() {
			t.Fatal("key case differs in more than the key")
		}
		if other.Src.KeyID() == base.Src.KeyID() || other.Src.KeyID() == ([32]byte{}) {
			t.Fatal("two launches share a key identity")
		}
		if mustSeal(t, other) == want {
			t.Error("key identity: seal unchanged")
		}

		// Fork root: a container whose dirty blob, or an artifact its pages
		// alias, was tampered since capture has no seal at all, and restores
		// into nothing.
		if base.Src.Blob().Len() >= base.Src.NumPages()*guestmem.PageSize {
			t.Fatal("the container copied the pages that alias the kernel artifact")
		}
		for name, buf := range map[string]*artifact.Buf{"dirty blob": base.Src.Blob(), "aliased artifact": kernel} {
			buf.Corrupt(5, 0x40)
			if got, err := base.Seal(); !errors.Is(err, guestmem.ErrForkTampered) || got == want {
				t.Errorf("tampered %s: seal %x err %v, want ErrForkTampered", name, got[:4], err)
			}
			if err := base.Restore(p, h.NewMachine(p, base.Src.Size(), sev.SNP)); !errors.Is(err, guestmem.ErrForkTampered) {
				t.Errorf("tampered %s: Restore = %v, want ErrForkTampered", name, err)
			}
			buf.Corrupt(5, 0x40)
			if got := mustSeal(t, base); got != want {
				t.Errorf("fork root: seal did not return after the %s was restored", name)
			}
		}
	})
}

// TestSealMatchesDocumentedFieldList recomputes Fork.Seal from the field
// list in its doc comment with nothing but sha256 and encoding/binary —
// magic, SEV flag, guest size, page count; page number and privacy byte
// per resident page; fork root; donor digest; key identity — so the doc
// comment, not the package's append helpers, is what the seal is held to.
func TestSealMatchesDocumentedFieldList(t *testing.T) {
	documented := func(f *Fork) [32]byte {
		h := sha256.New()
		h.Write([]byte("SVFSNAP1"))
		flag := []byte{0}
		if f.SEV {
			flag[0] = 1
		}
		h.Write(flag)
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], f.Src.Size())
		h.Write(u64[:])
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(f.Src.NumPages()))
		h.Write(u32[:])
		for _, fp := range pageList(f) {
			binary.LittleEndian.PutUint64(u64[:], fp.pn)
			h.Write(u64[:])
			private := []byte{0}
			if fp.private {
				private[0] = 1
			}
			h.Write(private)
		}
		for _, field := range [][32]byte{f.Src.Root(), f.Digest, f.Src.KeyID()} {
			h.Write(field[:])
		}
		return [32]byte(h.Sum(nil))
	}
	run(t, func(p *sim.Proc, h *kvm.Host) {
		kernel := artifact.Of(payload(9))
		aliasing := sevGuest(t, p, h, payload(7))
		if err := aliasing.Mem.GuestWriteArtifact(0x40000, kernel, 0, kernel.Len(), true); err != nil {
			t.Fatal(err)
		}
		plain := h.NewMachine(p, 1<<20, sev.None)
		if err := plain.Mem.HostWrite(0x10000, payload(7)); err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]*kvm.Machine{"SEV guest aliasing an artifact": aliasing, "keyless guest": plain} {
			f, err := CaptureFork(p, m, [32]byte{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			if f.Src.NumPages() == 0 {
				t.Fatalf("%s: nothing resident", name)
			}
			if got, want := mustSeal(t, f), documented(f); got != want {
				t.Errorf("%s: Seal() = %x, the documented field list hashes to %x", name, got[:8], want[:8])
			}
		}
	})
}
