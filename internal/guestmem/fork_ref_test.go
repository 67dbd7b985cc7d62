package guestmem

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/rmp"
)

// forkPage is one entry of a fork source's page table, listed page by page.
type forkPage struct {
	pn      uint64
	private bool
}

// pageList expands a source's page runs into one entry per page.
func pageList(s *ForkSource) []forkPage {
	var pages []forkPage
	s.PageRuns(func(pn, count uint64, private bool) {
		for i := uint64(0); i < count; i++ {
			pages = append(pages, forkPage{pn: pn + i, private: private})
		}
	})
	return pages
}

// exportForkSourceCopy is the slow reference ExportForkSource is checked
// against, and what it was until the extent table: list every resident
// page, copy each, in page-number order, into one blob, take the blob's
// digest as the root, and build a frozen directory whose every page
// aliases the blob. It knows nothing of provenance, extents or memoised
// digests, and returns its page list beside the source, for the runs of
// the extent export to be compared with.
func exportForkSourceCopy(m *Memory) (*ForkSource, []forkPage, error) {
	var pages []forkPage
	anyPrivate := false
	m.eachResident(func(pn uint64, p page) {
		pages = append(pages, forkPage{pn: pn, private: p.encrypted})
		anyPrivate = anyPrivate || p.encrypted
	})
	if anyPrivate && m.key == nil {
		return nil, nil, ErrNoKey
	}
	blob := make([]byte, len(pages)*PageSize)
	for i, fp := range pages {
		copy(blob[i*PageSize:], m.look(fp.pn).readable())
	}
	buf := artifact.Of(blob)
	src := &ForkSource{size: m.size, npages: len(pages), blob: buf, keyID: m.keyID(), dir: make([]dirEntry, len(m.dir))}
	if buf != nil {
		src.root = buf.Digest()
	}
	for i, fp := range pages {
		e := &src.dir[fp.pn/leafPages]
		if e.leaf == nil {
			*e = dirEntry{leaf: new(leaf), frozen: true}
		}
		c := &e.leaf.chunks[fp.pn%leafPages/chunkPages]
		if *c == nil {
			*c = new(chunk)
		}
		p := &(*c)[fp.pn%chunkPages]
		p.alias(blob[i*PageSize:(i+1)*PageSize], buf, i*PageSize)
		p.encrypted = fp.private
		if !fp.private {
			continue
		}
		if n := len(src.privateRuns); n > 0 && src.privateRuns[n-1].pn+src.privateRuns[n-1].count == fp.pn {
			src.privateRuns[n-1].count++
		} else {
			src.privateRuns = append(src.privateRuns, pageRun{pn: fp.pn, count: 1})
		}
	}
	return src, pages, nil
}

// pagesOf is a leaf's page structs by value: its eight chunks, a nil one as
// 64 untouched pages.
func pagesOf(l *leaf) (pages [leafChunks]chunk) {
	for c, ch := range l.chunks {
		if ch != nil {
			pages[c] = *ch
		}
	}
	return pages
}

// childOf returns a guest able to adopt donor's sources — same size, key
// and ASID, an RMP of its own when the donor has one — after prepare, if
// given, has put something in it for the adoption to overlay.
func childOf(t *testing.T, donor *Memory, prepare func(*Memory)) *Memory {
	t.Helper()
	m := New(donor.size)
	if donor.key != nil {
		m.SetKey(donor.key, donor.asid)
	}
	if donor.rmp != nil {
		m.AttachRMP(rmp.New(), donor.asid)
	}
	if prepare != nil {
		prepare(m)
	}
	return m
}

// sameGuest requires every observable of a and b to agree: per-page state
// and the three views of every page either backs, Stats, ExportPages.
func sameGuest(t *testing.T, a, b *Memory) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("Stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	for gpa := uint64(0); gpa < a.size; gpa += PageSize {
		if a.IsPrivate(gpa) != b.IsPrivate(gpa) || a.Resident(gpa) != b.Resident(gpa) {
			t.Fatalf("page %d: private %v/%v, resident %v/%v", gpa/PageSize,
				a.IsPrivate(gpa), b.IsPrivate(gpa), a.Resident(gpa), b.Resident(gpa))
		}
		if !a.Resident(gpa) {
			continue
		}
		ha, errA := a.HostRead(gpa, PageSize)
		hb, errB := b.HostRead(gpa, PageSize)
		if (errA == nil) != (errB == nil) || !bytes.Equal(ha, hb) {
			t.Fatalf("page %d: HostRead differs (%v / %v)", gpa/PageSize, errA, errB)
		}
		for _, cbit := range []bool{false, true} {
			ga, errA := a.GuestRead(gpa, PageSize, cbit)
			gb, errB := b.GuestRead(gpa, PageSize, cbit)
			if (errA == nil) != (errB == nil) || !bytes.Equal(ga, gb) {
				t.Fatalf("page %d: GuestRead(cbit=%v) differs (%v / %v)", gpa/PageSize, cbit, errA, errB)
			}
		}
	}
	ea, errA := a.ExportPages()
	eb, errB := b.ExportPages()
	if errA != nil || errB != nil || !reflect.DeepEqual(ea, eb) {
		t.Fatalf("ExportPages differ (%v / %v)", errA, errB)
	}
}

// matchesCopyReference exports donor through the reference and requires
// s, the extent export of the same donor in the same state, to describe
// the same guest: same page table, same private runs, the same bytes in
// page order, and children that cannot be told apart.
func matchesCopyReference(t *testing.T, donor *Memory, s *ForkSource) {
	t.Helper()
	ref, refPages, err := exportForkSourceCopy(donor)
	if err != nil {
		t.Fatal(err)
	}
	pages := pageList(s)
	if len(pages) != len(refPages) || (len(refPages) > 0 && !reflect.DeepEqual(pages, refPages)) {
		t.Fatalf("page tables differ: the runs list %d pages, the reference %d", len(pages), len(refPages))
	}
	if s.NumPages() != len(refPages) {
		t.Fatalf("NumPages() = %d, the reference lists %d", s.NumPages(), len(refPages))
	}
	if !reflect.DeepEqual(s.privateRuns, ref.privateRuns) {
		t.Fatalf("private runs differ: %v vs the reference's %v", s.privateRuns, ref.privateRuns)
	}
	if s.KeyID() != ref.KeyID() || s.Size() != ref.Size() {
		t.Fatal("key identity or size differs from the reference's")
	}

	// The extents tile the reference's page table in order, and the bytes
	// they name are the bytes the reference copied.
	h, next := sha256.New(), 0
	for _, x := range s.extents {
		for i := uint64(0); i < x.count; i, next = i+1, next+1 {
			if next >= len(refPages) || refPages[next] != (forkPage{pn: x.pn + i, private: x.private}) {
				t.Fatalf("extent %+v does not continue the page table at entry %d", x, next)
			}
		}
		h.Write(s.arts[x.art].Bytes()[x.off : x.off+int(x.count)*PageSize])
	}
	if next != len(refPages) {
		t.Fatalf("extents cover %d pages of %d", next, len(refPages))
	}
	if len(refPages) > 0 && [32]byte(h.Sum(nil)) != ref.Root() {
		t.Fatal("the bytes the extents name are not the bytes the reference copied")
	}
	if got := s.deriveRoot(); got != s.Root() {
		t.Fatal("the root recorded at export is not the root the table and digests derive")
	}

	// What AdoptFork's overlay branch relies on: a page the source backs
	// has data (and is copy-on-write), a page it does not is the zero page.
	backed := 0
	for i, e := range s.dir {
		if e.leaf == nil {
			continue
		}
		if !e.frozen {
			t.Fatalf("directory entry %d is not frozen", i)
		}
		for c, ch := range pagesOf(e.leaf) {
			for j, p := range ch {
				switch {
				case p.data != nil && p.cow:
					backed++
				case p != (page{}):
					t.Fatalf("page %d of the frozen directory: %+v is neither backed copy-on-write nor untouched", i*leafPages+c*chunkPages+j, p)
				}
			}
		}
	}
	if backed != len(refPages) {
		t.Fatalf("frozen directory backs %d pages, the page table lists %d", backed, len(refPages))
	}

	// Children: onto an empty guest (leaves shared whole) and onto one
	// that already owns leaves at both ends (pages overlaid one by one).
	scribble := func(m *Memory) {
		for _, pn := range []uint64{3, leafPages + 1, 2*leafPages + 1} {
			if gpa := pn * PageSize; gpa+7 <= m.size {
				if err := m.HostWrite(gpa, []byte("already")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, prepare := range []func(*Memory){nil, scribble} {
		a, b := childOf(t, donor, prepare), childOf(t, donor, prepare)
		if err := a.AdoptFork(s); err != nil {
			t.Fatal(err)
		}
		if err := b.AdoptFork(ref); err != nil {
			t.Fatal(err)
		}
		sameGuest(t, a, b)
	}
}

// TestExtentForkMatchesCopyReference checks the extent export against the
// copy-and-hash export it replaced, on every source dir_test.go's seeded
// op stream exports — donors built through every write path, GuestCopy
// and state flips, donors that are themselves forked children, adopted
// onto empty and non-empty guests — with and without an RMP, and on the
// shapes the stream reaches only by luck.
func TestExtentForkMatchesCopyReference(t *testing.T) {
	for _, snp := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("stream/snp=%v/seed=%d", snp, seed), func(t *testing.T) {
				exports := 0
				runDirectoryOps(t, seed, snp, 400, nil, func(donor *Memory, s *ForkSource) {
					exports++
					matchesCopyReference(t, donor, s)
				})
				if exports < 5 {
					t.Fatalf("the op stream exported only %d sources", exports)
				}
			})
		}
	}

	export := func(t *testing.T, m *Memory) *ForkSource {
		t.Helper()
		s, err := m.ExportForkSource()
		if err != nil {
			t.Fatal(err)
		}
		matchesCopyReference(t, m, s)
		return s
	}
	art := artifact.Of(bytes.Repeat([]byte("vmlinux "), 6*PageSize/8))
	t.Run("private all-zero page", func(t *testing.T) {
		m := New(dirTestSize)
		m.SetKey(key(3), 2)
		if err := m.LaunchUpdateFlip(9*PageSize, PageSize); err != nil { // never written: no data, only state
			t.Fatal(err)
		}
		if err := m.HostWriteArtifact(10*PageSize, art, 0, 2*PageSize); err != nil {
			t.Fatal(err)
		}
		s := export(t, m)
		if s.Blob().Len() != PageSize || !allZero(s.Blob().Bytes()) {
			t.Fatalf("dirty blob is %d bytes; want the one all-zero private page", s.Blob().Len())
		}
	})
	t.Run("nothing dirty", func(t *testing.T) {
		m := New(dirTestSize)
		if err := m.HostWriteArtifact(4*PageSize, art, PageSize, 3*PageSize); err != nil {
			t.Fatal(err)
		}
		if s := export(t, m); s.Blob() != nil || len(s.extents) != 1 || len(s.arts) != 1 {
			t.Fatalf("a guest of three aliased pages exported blob %v, %d extents, %d artifacts", s.Blob(), len(s.extents), len(s.arts))
		}
	})
	t.Run("extents split where a run breaks", func(t *testing.T) {
		m := New(dirTestSize)
		m.SetKey(key(3), 2)
		if err := m.HostWriteArtifact(4*PageSize, art, 0, 6*PageSize); err != nil {
			t.Fatal(err)
		}
		if err := m.HostWrite(6*PageSize+5, []byte("dirtied")); err != nil { // splits the artifact run in two
			t.Fatal(err)
		}
		if err := m.LaunchUpdateFlip(8*PageSize, 2*PageSize); err != nil { // same bytes, other privacy
			t.Fatal(err)
		}
		if err := m.HostWriteArtifact(20*PageSize, art, 0, PageSize); err != nil { // same artifact, a gap away
			t.Fatal(err)
		}
		s := export(t, m)
		want := []extent{
			{pn: 4, count: 2, art: 0, off: 0},
			{pn: 6, count: 1, art: 1, off: 0},
			{pn: 7, count: 1, art: 0, off: 3 * PageSize},
			{pn: 8, count: 2, art: 0, off: 4 * PageSize, private: true},
			{pn: 20, count: 1, art: 0, off: 0},
		}
		if !reflect.DeepEqual(s.extents, want) || len(s.arts) != 2 || s.arts[0] != art || s.arts[1] != s.Blob() {
			t.Fatalf("extents %+v, want %+v over (artifact, blob)", s.extents, want)
		}
		// A child of this source exports the same guest again, its dirty
		// page now an extent of the parent's blob.
		child := childOf(t, m, nil)
		if err := child.AdoptFork(s); err != nil {
			t.Fatal(err)
		}
		if again := export(t, child); again.Blob() != nil || len(again.arts) != 2 {
			t.Fatalf("re-export of an untouched child copied %v and names %d artifacts; want nothing and 2", again.Blob(), len(again.arts))
		}
	})
}

// tamperCase is one way to dirty, between capture and fork, bytes a fork
// source's pages alias.
type tamperCase struct {
	name string
	buf  func(art *artifact.Buf, s *ForkSource) *artifact.Buf
	off  int
}

// TestForkTamperSites: a byte flipped in an artifact only an extent
// references, or in the dirty blob, is refused by Verify and by AdoptFork
// before a leaf is shared, on the honest path that re-derives the root
// from the artifacts' digests; flipping it back makes the source adoptable
// again. An extent-table entry altered after export derives another root.
func TestForkTamperSites(t *testing.T) {
	build := func(t *testing.T) (*Memory, *artifact.Buf, *ForkSource) {
		t.Helper()
		art := artifact.Of(bytes.Repeat([]byte("decompressed vmlinux "), 8*PageSize/21+1)[:8*PageSize])
		m := New(dirTestSize)
		m.SetKey(key(5), 4)
		if err := m.GuestWriteArtifact(16*PageSize, art, 0, 8*PageSize, true); err != nil {
			t.Fatal(err)
		}
		if err := m.HostWrite(40*PageSize, []byte("boot params the guest wrote")); err != nil {
			t.Fatal(err)
		}
		art.Digest() // memoised before capture, as a registered image's artifacts are
		s, err := m.ExportForkSource()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.arts) != 2 || s.arts[0] != art || s.Blob().Len() != PageSize {
			t.Fatalf("source names %d artifacts and copied %d bytes; want the artifact, and one dirty page", len(s.arts), s.Blob().Len())
		}
		return m, art, s
	}
	for _, tc := range []tamperCase{
		{"aliased artifact", func(art *artifact.Buf, _ *ForkSource) *artifact.Buf { return art }, 5*PageSize + 77},
		// The root takes whole-artifact digests, so bytes of the artifact
		// no page aliases are under it too.
		{"aliased artifact, byte no extent covers", func(art *artifact.Buf, _ *ForkSource) *artifact.Buf { return art }, 8*PageSize - 1},
		{"dirty blob", func(_ *artifact.Buf, s *ForkSource) *artifact.Buf { return s.Blob() }, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			donor, art, s := build(t)
			buf := tc.buf(art, s)
			buf.Corrupt(tc.off, 0x20)
			if err := s.Verify(); !errors.Is(err, ErrForkTampered) {
				t.Fatalf("Verify after the flip = %v, want ErrForkTampered", err)
			}
			child := childOf(t, donor, nil)
			if err := child.AdoptFork(s); !errors.Is(err, ErrForkTampered) {
				t.Fatalf("AdoptFork after the flip = %v, want ErrForkTampered", err)
			}
			for i, e := range child.dir {
				if e.leaf != nil {
					t.Fatalf("refused adoption still shared leaf %d", i)
				}
			}
			buf.Corrupt(tc.off, 0x20) // the same mask again: the bytes are honest again
			if err := s.Verify(); err != nil {
				t.Fatalf("Verify after the flip was undone = %v", err)
			}
			if err := child.AdoptFork(s); err != nil {
				t.Fatalf("AdoptFork after the flip was undone = %v", err)
			}
			matchesCopyReference(t, donor, s)
		})
	}

	t.Run("extent table", func(t *testing.T) {
		_, _, s := build(t)
		for name, alter := range map[string]func(x *extent){
			"offset":      func(x *extent) { x.off += PageSize },
			"count":       func(x *extent) { x.count-- },
			"artifact":    func(x *extent) { x.art = 1 },
			"private bit": func(x *extent) { x.private = !x.private },
			"page number": func(x *extent) { x.pn++ },
		} {
			kept := s.extents[0]
			alter(&s.extents[0])
			if s.deriveRoot() == s.Root() {
				t.Errorf("altering the %s of an extent left the root unchanged", name)
			}
			s.extents[0] = kept
		}
		dropped := s.extents
		s.extents = s.extents[:1]
		if s.deriveRoot() == s.Root() {
			t.Error("dropping an extent left the root unchanged")
		}
		s.extents = dropped
		if s.deriveRoot() != s.Root() {
			t.Fatal("the restored table no longer derives the root")
		}
	})
}
