package guestmem

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/severifast/severifast/internal/rmp"
	"github.com/severifast/severifast/internal/telemetry"
)

// forkDonor builds a donor memory with a mix of private and shared
// resident pages, as a booted guest would have.
func forkDonor(t *testing.T) *Memory {
	t.Helper()
	m := New(1 << 20)
	m.SetKey(key(7), 3)
	private := []byte("kernel text measured and encrypted at launch")
	if err := m.HostWrite(0x1000, private); err != nil {
		t.Fatal(err)
	}
	if err := m.LaunchUpdateFlip(0x1000, len(private)); err != nil {
		t.Fatal(err)
	}
	shared := []byte("shared staging area, host visible")
	if err := m.HostWrite(0x8000, shared); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForkRoundTrip(t *testing.T) {
	donor := forkDonor(t)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	if src.NumPages() == 0 {
		t.Fatal("fork source exported no pages")
	}

	child := New(1 << 20)
	child.ShareKey(donor)
	if err := child.AdoptFork(src); err != nil {
		t.Fatal(err)
	}

	// The fork sees the donor's exact contents, private and shared.
	for _, gpa := range []uint64{0x1000, 0x8000} {
		want, err := donor.GuestRead(gpa, 64, gpa == 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		got, err := child.GuestRead(gpa, 64, gpa == 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fork guest view at %#x differs from donor", gpa)
		}
	}
	// Host-visible ciphertext is identical too: the cipher is
	// (key, asid, pn)-tweaked, and the fork shares all three.
	wantCT, err := donor.HostRead(0x1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	gotCT, err := child.HostRead(0x1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCT, wantCT) {
		t.Fatal("fork host-visible ciphertext differs from donor")
	}
}

func TestForkCoWIsolation(t *testing.T) {
	donor := forkDonor(t)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	child := New(1 << 20)
	child.ShareKey(donor)
	if err := child.AdoptFork(src); err != nil {
		t.Fatal(err)
	}
	// A write in the fork must not leak into the donor (or the blob).
	if err := child.HostWrite(0x8000, []byte("forked write")); err != nil {
		t.Fatal(err)
	}
	donorView, err := donor.GuestRead(0x8000, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(donorView, []byte("forked write")) {
		t.Fatal("fork write leaked into the donor: CoW break missing")
	}
}

func TestForkTamperDetected(t *testing.T) {
	donor := forkDonor(t)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	// Host-side bit flip in the shared fork blob between capture and
	// adopt: the root digest re-check must refuse the fork.
	src.Blob().Corrupt(100, 0x40)
	child := New(1 << 20)
	child.ShareKey(donor)
	if err := child.AdoptFork(src); !errors.Is(err, ErrForkTampered) {
		t.Fatalf("AdoptFork after blob corruption = %v, want ErrForkTampered", err)
	}
}

func TestForkSizeAndKeyChecks(t *testing.T) {
	donor := forkDonor(t)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	small := New(1 << 16)
	if err := small.AdoptFork(src); !errors.Is(err, ErrSize) {
		t.Fatalf("AdoptFork into smaller guest = %v, want ErrSize", err)
	}
	keyless := New(1 << 20)
	if err := keyless.AdoptFork(src); !errors.Is(err, ErrNoKey) {
		t.Fatalf("AdoptFork without key = %v, want ErrNoKey", err)
	}
	// The export side of the same rule: private pages whose key is gone
	// cannot be frozen into a source nobody could adopt.
	donor.key = nil
	if _, err := donor.ExportForkSource(); !errors.Is(err, ErrNoKey) {
		t.Fatalf("ExportForkSource without key = %v, want ErrNoKey", err)
	}
}

// TestForkKeyIDSeparatesLaunches: the key identity is equal for two
// exports under one key and ASID, differs when either differs, is zero
// for a keyless guest, and is domain-separated from a plain key hash.
func TestForkKeyIDSeparatesLaunches(t *testing.T) {
	export := func(key []byte, asid uint32) [32]byte {
		m := New(1 << 20)
		if key != nil {
			m.SetKey(key, asid)
		}
		if err := m.HostWrite(0, []byte("resident")); err != nil {
			t.Fatal(err)
		}
		src, err := m.ExportForkSource()
		if err != nil {
			t.Fatal(err)
		}
		return src.KeyID()
	}
	k1, k2 := bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 16)
	id := export(k1, 3)
	if id != export(k1, 3) {
		t.Fatal("same key and ASID, different identity")
	}
	if id == export(k2, 3) || id == export(k1, 4) {
		t.Fatal("identity ignores the key or the ASID")
	}
	if export(nil, 0) != ([32]byte{}) {
		t.Fatal("keyless guest has a key identity")
	}
	if id == sha256.Sum256(k1) {
		t.Fatal("identity is the bare hash of the key, not domain-separated")
	}
}

// A guest with no resident pages exports a source with no blob; adopting
// it is a no-op, not a nil dereference.
func TestForkOfEmptyGuestAdoptsToEmptyGuest(t *testing.T) {
	src, err := New(1 << 20).ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	if src.NumPages() != 0 || src.Blob() != nil {
		t.Fatalf("empty guest exported %d pages, blob %v", src.NumPages(), src.Blob())
	}
	child := New(1 << 20)
	if err := child.AdoptFork(src); err != nil {
		t.Fatalf("AdoptFork of an empty source = %v", err)
	}
	if got := child.Stats(); got != (Stats{}) {
		t.Fatalf("adopting an empty source left %+v resident", got)
	}
}

// Eight children of one source, adopted and written concurrently (run
// under -race): each dirties one private and one shared page of a leaf
// every sibling shares. A store must land in the child's own copy of the
// leaf and its own copy of the page — never in the frozen directory, the
// blob, or a sibling.
func TestForkLeafIsolationUnderConcurrentWriters(t *testing.T) {
	const (
		asid        = 3
		children    = 8
		privatePN   = 16 // private run [16, 48)
		sharedPN    = 64 // shared run [64, 80), same leaf
		privateSpan = 32 * PageSize
		sharedSpan  = 16 * PageSize
	)
	rng := rand.New(rand.NewSource(11))
	content := make([]byte, privateSpan+sharedSpan)
	rng.Read(content)

	donor := New(2*leafPages*PageSize + PageSize)
	donor.SetKey(key(9), asid)
	if err := donor.HostWrite(privatePN*PageSize, content[:privateSpan]); err != nil {
		t.Fatal(err)
	}
	if err := donor.LaunchUpdateFlip(privatePN*PageSize, privateSpan); err != nil {
		t.Fatal(err)
	}
	if err := donor.HostWrite(sharedPN*PageSize, content[privateSpan:]); err != nil {
		t.Fatal(err)
	}
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	root, blobSum := src.Root(), sha256.Sum256(src.Blob().Bytes())

	adopt := func() (*Memory, *telemetry.HostRecorder) {
		m := New(donor.Size())
		m.ShareKey(donor)
		m.AttachRMP(rmp.New(), asid)
		rec := telemetry.NewHostRecorder()
		m.rec = rec
		if err := m.AdoptFork(src); err != nil {
			t.Error(err)
		}
		return m, rec
	}
	// view is what the guest sees of both runs; a private read only
	// succeeds because AdoptFork validated the run under the child's ASID.
	view := func(m *Memory) []byte {
		priv, err := m.GuestRead(privatePN*PageSize, privateSpan, true)
		if err != nil {
			t.Error(err)
		}
		shared, err := m.GuestRead(sharedPN*PageSize, sharedSpan, false)
		if err != nil {
			t.Error(err)
		}
		return append(priv, shared...)
	}

	mark := func(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, 64) }
	kids := make([]*Memory, children)
	recs := make([]*telemetry.HostRecorder, children)
	var wg sync.WaitGroup
	for i := 0; i < children; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, rec := adopt()
			kids[i], recs[i] = m, rec
			if err := m.GuestWrite(uint64(privatePN+i)*PageSize, mark(i), true); err != nil {
				t.Error(err)
			}
			if err := m.HostWrite(uint64(sharedPN+i)*PageSize, mark(i)); err != nil {
				t.Error(err)
			}
			view(m) // reads of the shared leaf race with the siblings' stores if any store lands there
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, m := range kids {
		want := append([]byte(nil), content...)
		copy(want[i*PageSize:], mark(i))
		copy(want[privateSpan+i*PageSize:], mark(i))
		if !bytes.Equal(view(m), want) {
			t.Fatalf("child %d sees something other than the parent plus its own two writes", i)
		}
		// The write dropped the page's provenance: the run no longer
		// resolves to the blob's memoized digest and is hashed for real.
		if _, err := m.PlainRangeDigest(privatePN*PageSize, privateSpan); err != nil {
			t.Fatal(err)
		}
		if _, c := recs[i].Snapshot(); c["guestmem.digest.memo"] != 0 || c["guestmem.digest.streamed"] != 1 {
			t.Fatalf("child %d: digest of a written run: memo=%d streamed=%d, want 0 and 1",
				i, c["guestmem.digest.memo"], c["guestmem.digest.streamed"])
		}
	}

	// The source is as it was: a ninth adoption sees the parent exactly,
	// and its untouched run still hits the memo.
	ninth, rec := adopt()
	if !bytes.Equal(view(ninth), content) {
		t.Fatal("a ninth adoption sees a sibling's write: a store reached the frozen directory or the blob")
	}
	if _, err := ninth.PlainRangeDigest(privatePN*PageSize, privateSpan); err != nil {
		t.Fatal(err)
	}
	if _, c := rec.Snapshot(); c["guestmem.digest.memo"] != 1 || c["guestmem.digest.streamed"] != 0 {
		t.Fatalf("untouched fork: memo=%d streamed=%d, want 1 and 0", c["guestmem.digest.memo"], c["guestmem.digest.streamed"])
	}
	if err := src.Verify(); err != nil {
		t.Fatalf("source no longer verifies: %v", err)
	}
	if src.Root() != root || sha256.Sum256(src.Blob().Bytes()) != blobSum {
		t.Fatal("fork root or blob bytes changed under the children's writes")
	}

	// A tampered blob is refused before a single leaf is shared.
	src.Blob().Corrupt(privateSpan/2, 0x01)
	late := New(donor.Size())
	late.ShareKey(donor)
	if err := late.AdoptFork(src); !errors.Is(err, ErrForkTampered) {
		t.Fatalf("AdoptFork of a corrupted blob = %v, want ErrForkTampered", err)
	}
	for i, e := range late.dir {
		if e.leaf != nil {
			t.Fatalf("refused adoption still shared leaf %d", i)
		}
	}
}
