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

// freshTemplate builds, without the memo, what templateLeaf must hold.
func freshTemplate(art *artifact.Buf, off int, private bool) *leaf {
	l := new(leaf)
	for j := range l {
		o := off + j*PageSize
		l[j] = page{data: (*[PageSize]byte)(art.Bytes()[o : o+PageSize]), art: art, artOff: uint32(o), cow: true, encrypted: private}
	}
	return l
}

func TestTemplateLeafBuiltOnceAndHitAllocatesNothing(t *testing.T) {
	art := bigArtifact()
	first := templateLeaf(art, PageSize, true)
	if *first != *freshTemplate(art, PageSize, true) {
		t.Fatal("template differs from 512 pages aliased one by one")
	}
	if templateLeaf(art, PageSize, false) == first || templateLeaf(art, 0, true) == first {
		t.Fatal("templates of different offsets or states are one leaf")
	}
	if n := testing.AllocsPerRun(100, func() {
		if templateLeaf(art, PageSize, true) != first {
			t.Fatal("a second lookup built a second template")
		}
	}); n != 0 {
		t.Fatalf("a template hit allocates %v times", n)
	}
}

// TestTemplateLeafNeverWritten: eight guests drive every kind of store
// through leaves they share as templates of one artifact, at once. The
// race detector sees any store into a shared leaf; afterwards each
// template still holds exactly what a fresh build would, two guests' root
// entries for the run none of them stored to are one pointer, and a sibling
// that only staged the artifact reads what it read before.
func TestTemplateLeafNeverWritten(t *testing.T) {
	art := bigArtifact()
	stage := func(m *Memory) error { return m.HostWriteArtifact(leafBytes, art, 0, art.Len()) }

	sibling := New(dirTestSize)
	if err := stage(sibling); err != nil {
		t.Fatal(err)
	}
	siblingDir := append([]dirEntry(nil), sibling.dir...)
	read := func() []byte {
		got, err := sibling.GuestRead(leafBytes, art.Len(), false)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	before := read()
	if !bytes.Equal(before, art.Bytes()) || !sibling.dir[1].template || !sibling.dir[2].template {
		t.Fatal("the sibling does not hold the artifact as two template leaves and a tail")
	}

	const workers, rounds = 8, 12
	guests := make([]*Memory, workers)
	var wg sync.WaitGroup
	for w := range guests {
		m := New(dirTestSize)
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
			// Anywhere in leaves 2..4, never in leaf 1.
			somewhere := func() uint64 { return 2*leafBytes + uint64(rng.Intn(3*leafPages))*PageSize }
			for r := 0; r < rounds; r++ {
				// Leaves 1 and 2 shared; then both copied private to 3 and 4,
				// which share the private templates of the same runs.
				check("stage", stage(m))
				check("copy", m.GuestCopy(3*leafBytes, leafBytes, 2*leafBytes, true, false))
				for _, e := range m.dir[1:5] {
					if !e.template {
						t.Errorf("guest %d: a whole-leaf write or copy owns its leaf", w)
					}
				}
				check("HostWrite", m.HostWrite(somewhere()+9, []byte("host")))
				check("GuestWrite", m.GuestWrite(somewhere()+17, []byte("guest"), rng.Intn(2) == 0))
				check("LaunchUpdateFlip", m.LaunchUpdateFlip(somewhere(), 3*PageSize))
				check("ShareRange", m.ShareRange(somewhere(), 2*PageSize))
				ct := make([]byte, PageSize)
				rng.Read(ct)
				check("HostRestoreCiphertext", m.HostRestoreCiphertext(somewhere(), ct))
				check("copy out of an owned leaf", m.GuestCopy(0, 2*leafBytes, 8*PageSize, true, m.IsPrivate(2*leafBytes)))
				if sum, err := m.HashRange(leafBytes, leafBytes, false); err != nil || sum != art.RangeDigest(0, leafBytes) {
					t.Errorf("guest %d: the untouched leaf no longer hashes to the artifact's digest (err %v)", w, err)
				}
			}
		}(w)
	}
	wg.Wait()

	for _, off := range []int{0, leafBytes} {
		for _, private := range []bool{false, true} {
			if *templateLeaf(art, off, private) != *freshTemplate(art, off, private) {
				t.Errorf("template (offset %#x, private %v) was stored to", off, private)
			}
		}
	}
	for _, m := range guests {
		if e := m.dir[1]; !e.template || e.leaf != sibling.dir[1].leaf {
			t.Fatal("guests that never stored to a run do not share one template for it")
		}
	}
	for i, e := range sibling.dir {
		if e != siblingDir[i] {
			t.Fatalf("the sibling's root entry %d changed", i)
		}
	}
	if !bytes.Equal(read(), before) {
		t.Fatal("the sibling reads other bytes than before")
	}
}
