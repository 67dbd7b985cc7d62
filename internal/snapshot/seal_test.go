package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
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

// mustSeal seals a container the test expects to be intact.
func mustSeal(t *testing.T, f *Fork) [32]byte {
	t.Helper()
	seal, err := f.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return seal
}

// TestSealCoversEveryField: the seal is a function of the container alone,
// and every field a fork of it aliases or inherits moves it. Fields that
// live inside the fork source are mutated the only way they can differ in
// practice — by capturing a guest that differs in just that respect.
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
		pages := base.Src.Pages()
		inPlace := map[string]func(){
			"one page number": func() { pages[3].PN ^= 1 },
			"one private bit": func() { pages[3].Private = !pages[3].Private },
			"SEV flag":        func() { base.SEV = !base.SEV },
			"donor digest":    func() { base.Digest[31] ^= 1 },
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
		if other.Src.Root() != base.Src.Root() || len(other.Src.Pages()) != len(pages) {
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
		if base.Src.Blob().Len() >= len(base.Src.Pages())*guestmem.PageSize {
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
		binary.LittleEndian.PutUint32(u32[:], uint32(len(f.Src.Pages())))
		h.Write(u32[:])
		for _, fp := range f.Src.Pages() {
			binary.LittleEndian.PutUint64(u64[:], fp.PN)
			h.Write(u64[:])
			private := []byte{0}
			if fp.Private {
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
			if len(f.Src.Pages()) == 0 {
				t.Fatalf("%s: nothing resident", name)
			}
			if got, want := mustSeal(t, f), documented(f); got != want {
				t.Errorf("%s: Seal() = %x, the documented field list hashes to %x", name, got[:8], want[:8])
			}
		}
	})
}
