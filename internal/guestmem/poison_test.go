//go:build guestmem_poison

package guestmem

import (
	"bytes"
	"testing"
)

// TestReleasePoisons: under the guestmem_poison tag, everything Release
// hands back carries the pattern, so the tests that draw it would see any
// of it a draw left in place.
func TestReleasePoisons(t *testing.T) {
	f := &FreeLists{}
	releasedGuest(t, f)
	for _, d := range f.pages {
		if *d != *poisonBytes {
			t.Fatal("a released page buffer is not poisoned")
		}
	}
	for _, ch := range f.chunks {
		for _, p := range ch {
			if p.data != poisonBytes {
				t.Fatal("a released chunk is not poisoned")
			}
		}
	}
	for _, l := range f.leaves {
		if *l != *poisonedLeaf {
			t.Fatal("a released node is not poisoned")
		}
	}
	for _, d := range f.dirs {
		for _, e := range d {
			if e.leaf != poisonedLeaf {
				t.Fatal("a released directory is not poisoned")
			}
		}
	}
}

// TestDrawsNeverShowPoison builds one guest out of a poisoned guest's
// structures and a twin from fresh ones with the same writes — sub-page
// into untouched pages, a template thawed by a state flip, a ciphertext
// restore — and requires every byte of the two to read the same both
// ways, and their Stats to agree: each draw was zeroed or overwritten
// before anything read it.
func TestDrawsNeverShowPoison(t *testing.T) {
	f := &FreeLists{}
	released := releasedGuest(t, f)
	big := bigArtifact()
	recycled, fresh := f.New(4*leafBytes, nil), New(4*leafBytes)
	for _, m := range []*Memory{recycled, fresh} {
		m.SetKey(key(4), 1)
		for _, err := range []error{
			m.HostWrite(0x123, []byte("sub-page")),
			m.HostWrite(leafBytes+70*PageSize+9, []byte("another chunk")),
			m.HostWriteArtifact(2*leafBytes, big, 0, leafBytes),
			m.LaunchUpdateFlip(2*leafBytes+5*PageSize, PageSize),
			m.HostRestoreCiphertext(3*leafBytes, bytes.Repeat([]byte{7}, PageSize)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if released.dir != nil || len(f.dirs)+len(f.leaves) != 0 {
		t.Fatalf("the recycled guest drew %d of %d directories and left %d nodes: it was not built from the released one", 1-len(f.dirs), 1, len(f.leaves))
	}
	if recycled.Stats() != fresh.Stats() {
		t.Fatalf("Stats %+v built from released structures, %+v from fresh ones", recycled.Stats(), fresh.Stats())
	}
	for _, cbit := range []bool{false, true} {
		a, errA := recycled.GuestRead(0, int(recycled.Size()), cbit)
		b, errB := fresh.GuestRead(0, int(fresh.Size()), cbit)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("GuestRead(cbit=%v) of a guest built from released structures differs from a fresh one's (errs %v, %v)", cbit, errA, errB)
		}
		if bytes.Contains(a, bytes.Repeat([]byte{poisonByte}, 64)) {
			t.Fatalf("GuestRead(cbit=%v) shows the poison pattern", cbit)
		}
	}
}
