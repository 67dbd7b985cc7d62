package guestmem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"github.com/severifast/severifast/internal/artifact"
)

// A root slot is 16 bytes: a third word would add 1 KiB to every 256 MiB
// guest, which is an eighth of what a forked boot allocates.
func TestDirEntryIsSixteenBytes(t *testing.T) {
	if got := unsafe.Sizeof(dirEntry{}); got != 16 {
		t.Fatalf("dirEntry is %d bytes, want 16", got)
	}
}

// A Memory is 128 bytes, a size class of its own: the slab bookkeeping the
// chunked directory added must not push it into the next one, because a
// forked boot pays for the struct and owns no node or chunk.
func TestMemoryKeepsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Memory{}); got > 128 {
		t.Fatalf("Memory is %d bytes, want at most 128", got)
	}
}

// freshChunk builds, without the memo, what templateChunk must hold.
func freshChunk(art *artifact.Buf, off int, private bool) *chunk {
	c := new(chunk)
	for j := range c {
		o := off + j*PageSize
		c[j] = page{data: (*[PageSize]byte)(art.Bytes()[o : o+PageSize]), art: art, artOff: uint32(o), cow: true, encrypted: private}
	}
	return c
}

// intact reports whether the template leaf for leafBytes of art from off
// is what a fresh build would be: both masks full, and each of its eight
// chunks 64 pages of its run aliased one by one.
func intact(art *artifact.Buf, off int, private bool) bool {
	l := templateLeaf(art, off, private)
	for c, ch := range l.chunks {
		if *ch != *freshChunk(art, off+c*chunkBytes, private) {
			return false
		}
	}
	return l.shared == allChunks && l.template == allChunks
}

func TestTemplateLeafBuiltOnceAndHitAllocatesNothing(t *testing.T) {
	art := bigArtifact()
	chunk0 := templateChunk(art, PageSize, true)
	if *chunk0 != *freshChunk(art, PageSize, true) {
		t.Fatal("chunk template differs from 64 pages aliased one by one")
	}
	first := templateLeaf(art, PageSize, true)
	if !intact(art, PageSize, true) {
		t.Fatal("template leaf is not a node of its run's eight chunk templates")
	}
	if templateLeaf(art, PageSize, false) == first || templateLeaf(art, 0, true) == first ||
		templateChunk(art, PageSize, false) == chunk0 || templateChunk(art, 0, true) == chunk0 {
		t.Fatal("templates of different offsets or states are one")
	}
	if n := testing.AllocsPerRun(100, func() {
		if templateLeaf(art, PageSize, true) != first || templateChunk(art, PageSize, true) != chunk0 {
			t.Fatal("a second lookup built a second template")
		}
	}); n != 0 {
		t.Fatalf("a template hit allocates %v times", n)
	}
}

// TestTemplateLeafNeverWritten: eight guests drive every kind of store
// through templates of one artifact they share — whole leaves through
// their root entries, chunks through nodes they own — at once. The race
// detector sees any store into a shared node or chunk; afterwards each
// template still holds exactly what a fresh build would, every guest's
// pointers for the runs none of them stored to are one pointer, and a
// sibling that only staged the artifact reads what it read before. The
// artifact's ragged last page is a padded edge page: the sibling makes it,
// the first round of every guest finds it at once, and every later round's
// staging stores over it.
func TestTemplateLeafNeverWritten(t *testing.T) {
	art := bigArtifact()
	// Two chunks into leaf 1: chunks 2..7 of leaf 1 and 0..1 of leaf 3 are
	// chunk templates, leaf 2 is a template leaf, the tail is owned.
	const size, at = 8 * leafBytes, leafBytes + 2*chunkBytes
	stage := func(m *Memory) error { return m.HostWriteArtifact(at, art, 0, art.Len()) }
	shape := func(m *Memory) bool {
		one, three := m.dir[1], m.dir[3]
		return !one.frozen && one.leaf.template == allChunks&^3 && m.dir[2].template && !three.frozen && three.leaf.template&3 == 3
	}

	sibling := New(size)
	if err := stage(sibling); err != nil {
		t.Fatal(err)
	}
	siblingDir := append([]dirEntry(nil), sibling.dir...)
	siblingOne, siblingThree := *sibling.dir[1].leaf, pagesOf(sibling.dir[3].leaf)
	read := func() []byte {
		got, err := sibling.GuestRead(at, art.Len(), false)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	before := read()
	if !bytes.Equal(before, art.Bytes()) || !shape(sibling) {
		t.Fatal("the sibling does not hold the artifact as six chunk templates, a template leaf, two chunk templates and a tail")
	}

	const workers, rounds = 8, 12
	guests := make([]*Memory, workers)
	var wg sync.WaitGroup
	for w := range guests {
		m := New(size)
		m.SetKey(key(byte(w+1)), uint32(w+1))
		guests[w] = m
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			check := func(what string, err error) {
				if err != nil {
					t.Errorf("guest %d: %s: %v", w, what, err)
				}
			}
			// Anywhere in leaf 1 or leaves 4..7, never in leaves 2 and 3, and
			// four pages clear of them and of the end.
			somewhere := func() uint64 {
				pn := uint64(leafPages + rng.Intn(5*leafPages-8))
				if pn >= 2*leafPages-4 {
					pn += 2*leafPages + 4
				}
				return pn * PageSize
			}
			for r := 0; r < rounds; r++ {
				// The staged run copied private four leaves on shares the
				// private templates of the same runs, leaf for leaf and chunk
				// for chunk; two chunks out of the template leaf, onto a
				// chunk boundary inside leaf 4, share two more.
				check("stage", stage(m))
				check("copy", m.GuestCopy(at+4*leafBytes, at, 2*leafBytes, true, false))
				check("copy out of a template leaf", m.GuestCopy(4*leafBytes+3*chunkBytes, 2*leafBytes, 2*chunkBytes, true, false))
				if !shape(m) || m.dir[5].leaf.template != allChunks&^3 || !m.dir[6].template || m.dir[7].leaf.template&3 != 3 || m.dir[4].leaf.template&(3<<3) != 3<<3 {
					t.Errorf("guest %d: a whole-leaf or whole-chunk write or copy owns its pages", w)
				}
				check("HostWrite", m.HostWrite(somewhere()+9, []byte("host")))
				check("GuestWrite", m.GuestWrite(somewhere()+17, []byte("guest"), rng.Intn(2) == 0))
				check("LaunchUpdateFlip", m.LaunchUpdateFlip(somewhere(), 3*PageSize))
				check("ShareRange", m.ShareRange(somewhere(), 2*PageSize))
				ct := make([]byte, PageSize)
				rng.Read(ct)
				check("HostRestoreCiphertext", m.HostRestoreCiphertext(somewhere(), ct))
				check("copy out of an owned chunk", m.GuestCopy(0, leafBytes, 8*PageSize, true, m.IsPrivate(leafBytes)))
				if sum, err := m.HashRange(2*leafBytes, leafBytes+2*chunkBytes, false); err != nil || sum != art.RangeDigest(6*chunkBytes, leafBytes+2*chunkBytes) {
					t.Errorf("guest %d: the untouched run no longer hashes to the artifact's digest (err %v)", w, err)
				}
			}
		}(w)
	}
	wg.Wait()

	for _, private := range []bool{false, true} {
		if !intact(art, 6*chunkBytes, private) {
			t.Errorf("template leaf (private %v) was stored to", private)
		}
		for off := 0; off < 2*leafBytes; off += chunkBytes {
			if *templateChunk(art, off, private) != *freshChunk(art, off, private) {
				t.Errorf("chunk template (offset %#x, private %v) was stored to", off, private)
			}
		}
	}
	for _, m := range guests {
		if e := m.dir[2]; !e.template || e.leaf != sibling.dir[2].leaf {
			t.Fatal("guests that never stored to a run do not share one template leaf for it")
		}
		if l := m.dir[3].leaf; l.template&3 != 3 || l.chunks[0] != siblingDir[3].leaf.chunks[0] || l.chunks[1] != siblingDir[3].leaf.chunks[1] {
			t.Fatal("guests that never stored to a run do not share one chunk template for it")
		}
	}
	for i, e := range sibling.dir {
		if e != siblingDir[i] {
			t.Fatalf("the sibling's root entry %d changed", i)
		}
	}
	if *sibling.dir[1].leaf != siblingOne || pagesOf(sibling.dir[3].leaf) != siblingThree {
		t.Fatal("the sibling's own nodes or chunks changed")
	}
	if !bytes.Equal(read(), before) {
		t.Fatal("the sibling reads other bytes than before")
	}
}
