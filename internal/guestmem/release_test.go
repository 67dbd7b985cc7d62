package guestmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/rmp"
	"github.com/severifast/severifast/internal/telemetry"
)

// TestRecycledDirectoryMatchesMapReference runs the op-stream reference
// with every guest drawn from one host's free lists, and each guest the
// stream retires released to them, so that later guests are built out of
// earlier guests' nodes, chunks, page buffers and directories. Every
// observable — bytes each way, Stats, range digests — is checked against
// the reference after every op, as it is with recycling off; the reference
// does not recycle, so the two runs agree at every step. Under the
// guestmem_poison tag what is released carries a pattern, and a draw that
// did not zero or overwrite it would show it here.
func TestRecycledDirectoryMatchesMapReference(t *testing.T) {
	for _, snp := range []bool{false, true} {
		tally := pathTally{}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("snp=%v/seed=%d", snp, seed), func(t *testing.T) {
				tally.add(runDirectoryOps(t, seed, snp, 700, &FreeLists{}, nil))
			})
		}
		t.Logf("snp=%v: %v", snp, tally)
		for _, kind := range []string{"dir", "leaf", "chunk", "page"} {
			if !t.Failed() && tally["reused "+kind] == 0 {
				t.Errorf("snp=%v: no guest drew a released %s (tally %v)", snp, kind, tally)
			}
		}
		if !t.Failed() && tally["digest of a never-written range"] == 0 {
			t.Errorf("snp=%v: the op streams never digested a never-written range (tally %v)", snp, tally)
		}
	}
}

// releasedGuest returns a guest that held owned pages, a key and an RMP,
// released to f.
func releasedGuest(t *testing.T, f *FreeLists) *Memory {
	t.Helper()
	m := f.New(4*leafBytes, nil)
	m.SetKey(key(3), 7)
	m.AttachRMP(rmp.New(), 7)
	m.NotePinned(int(m.Size()))
	for _, gpa := range []uint64{0, 5 * PageSize, leafBytes + 7} {
		if err := m.HostWrite(gpa, bytes.Repeat([]byte{0x3c}, 3*PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	m.Release()
	if len(f.pages) == 0 || len(f.chunks) == 0 || len(f.leaves) == 0 || len(f.dirs) != 1 {
		t.Fatalf("release handed back %d pages, %d chunks, %d nodes, %d directories", len(f.pages), len(f.chunks), len(f.leaves), len(f.dirs))
	}
	return m
}

// TestReleasedGuestFailsClosed calls every exported method of a released
// guest, twice, and requires each result to be ErrReleased or empty: no
// byte, digest, key, size or page of the guest survives, and no setter
// brings any back. The method set is enumerated, so an accessor added
// without the released check fails here.
func TestReleasedGuestFailsClosed(t *testing.T) {
	m := releasedGuest(t, &FreeLists{})
	donor := New(m.size + 4*leafBytes)
	donor.SetKey(key(4), 4)
	if err := donor.HostWrite(0, []byte("donor")); err != nil {
		t.Fatal(err)
	}
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	art := artifact.Of(bytes.Repeat([]byte{9}, 4*PageSize))
	arg := func(typ reflect.Type) reflect.Value {
		switch v := reflect.New(typ).Elem(); typ {
		case reflect.TypeOf(uint64(0)):
			v.SetUint(PageSize)
			return v
		case reflect.TypeOf(0):
			v.SetInt(PageSize)
			return v
		case reflect.TypeOf(uint32(0)):
			v.SetUint(7)
			return v
		case reflect.TypeOf(true):
			v.SetBool(true)
			return v
		case reflect.TypeOf([]byte(nil)):
			return reflect.ValueOf(make([]byte, PageSize))
		case reflect.TypeOf(art):
			return reflect.ValueOf(art)
		case reflect.TypeOf(src):
			return reflect.ValueOf(src)
		case reflect.TypeOf(donor):
			return reflect.ValueOf(donor)
		case reflect.TypeOf((*rmp.Table)(nil)):
			return reflect.ValueOf(rmp.New())
		case reflect.TypeOf((*telemetry.HostRecorder)(nil)):
			return reflect.ValueOf(telemetry.NewHostRecorder())
		default:
			t.Fatalf("no argument of type %v", typ)
			return v
		}
	}
	errType := reflect.TypeOf((*error)(nil)).Elem()
	recv := reflect.ValueOf(m)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < recv.NumMethod(); i++ {
			name, fn := recv.Type().Method(i).Name, recv.Method(i)
			in := make([]reflect.Value, fn.Type().NumIn())
			for j := range in {
				in[j] = arg(fn.Type().In(j))
			}
			for j, out := range fn.Call(in) {
				if out.Type() == errType {
					if err, _ := out.Interface().(error); !errors.Is(err, ErrReleased) {
						t.Errorf("pass %d: %s: error %v, want ErrReleased", pass, name, err)
					}
				} else if !out.IsZero() {
					t.Errorf("pass %d: %s: result %d of a released guest is %v, want empty", pass, name, j, out.Interface())
				}
			}
		}
	}
}

// TestReleasedForkLeavesDonorAndLaterForks releases a fork that shares its
// donor's key and AES block (ShareKey) and owns a page it wrote, then
// requires the donor and a fork adopted afterwards to read every page as
// before, plain text and ciphertext: the release scrubbed the fork's own
// copy of the key, not the donor's, and kept nothing they read.
func TestReleasedForkLeavesDonorAndLaterForks(t *testing.T) {
	f := &FreeLists{}
	donor := f.New(2*leafBytes, nil)
	donor.SetKey(key(6), 6)
	secret := bytes.Repeat([]byte("measured and private "), PageSize/8)
	public := []byte("shared staging, host visible")
	for _, err := range []error{
		donor.HostWrite(PageSize, secret),
		donor.LaunchUpdateFlip(PageSize, len(secret)),
		donor.HostWrite(leafBytes, public),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	cipherText, err := donor.HostRead(PageSize, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	adopt := func() *Memory {
		m := f.New(donor.Size(), nil)
		m.ShareKey(donor)
		if err := m.AdoptFork(src); err != nil {
			t.Fatal(err)
		}
		return m
	}
	check := func(who string, m *Memory) {
		t.Helper()
		for _, c := range []struct {
			gpa  uint64
			want []byte
			read func(uint64, int) ([]byte, error)
		}{
			{PageSize, secret, func(gpa uint64, n int) ([]byte, error) { return m.GuestRead(gpa, n, true) }},
			{PageSize, cipherText, m.HostRead},
			{leafBytes, public, m.HostRead},
		} {
			if got, err := c.read(c.gpa, len(c.want)); err != nil || !bytes.Equal(got, c.want) {
				t.Fatalf("%s at %#x: read %q (err %v), want %q", who, c.gpa, got, err, c.want)
			}
		}
	}
	fork := adopt()
	check("fork", fork)
	if err := fork.GuestWrite(PageSize, []byte("the fork's own page"), true); err != nil {
		t.Fatal(err)
	}
	fork.Release()
	if len(f.pages) == 0 {
		t.Fatal("the fork's release returned no page")
	}
	if !bytes.Equal(donor.key, key(6)) {
		t.Fatal("releasing the fork scrubbed the donor's key")
	}
	check("donor", donor)
	check("later fork", adopt())
}

// TestReleaseReturnsOnlyWhatTheGuestOwns releases a guest that shares
// everything a guest can share — a fork source's frozen nodes and chunks,
// template leaves and chunks, edge pages, aliased artifact bytes — next to
// what it owns, and requires the free lists to hold none of the shared
// structures and bytes, the source to still verify and adopt, and the
// donor never to be released.
func TestReleaseReturnsOnlyWhatTheGuestOwns(t *testing.T) {
	f := &FreeLists{}
	big := bigArtifact()
	staging := stagingArtifact(rand.New(rand.NewSource(4)))

	donor := f.New(dirTestSize, nil)
	donor.SetKey(key(5), 5)
	write := func(m *Memory) {
		t.Helper()
		for _, err := range []error{
			m.HostWriteArtifact(0, big, 0, big.Len()),               // template leaves and chunks
			m.HostWriteArtifact(4*leafBytes+100, staging, 100, 800), // an edge page
			m.HostWrite(4*leafBytes+9*PageSize, []byte("owned")),
			m.LaunchUpdateFlip(3*PageSize, 2*PageSize), // thaws a template: owned node and chunk
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	write(donor)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	donor.Release()
	if _, err := donor.HostRead(0, 1); err != nil || len(f.dirs) != 0 {
		t.Fatalf("the donor was released (read err %v, %d directories handed back)", err, len(f.dirs))
	}

	child := f.New(dirTestSize, nil)
	child.SetKey(key(5), 5)
	if err := child.AdoptFork(src); err != nil {
		t.Fatal(err)
	}
	write(child) // thaws the source's nodes, and some of their chunks

	// What the child shares: every node and chunk of the source's frozen
	// directory and of the artifact's templates, and the bytes its shared
	// pages alias.
	shared := map[any]bool{}
	note := func(dir []dirEntry) {
		for _, e := range dir {
			if e.leaf == nil {
				continue
			}
			if e.frozen {
				shared[e.leaf] = true
			}
			for c, ch := range e.leaf.chunks {
				if ch != nil && (e.frozen || e.leaf.shared&(1<<c) != 0) {
					shared[ch] = true
				}
			}
		}
	}
	note(src.dir)
	note(child.dir)
	aliased := map[*[PageSize]byte]bool{}
	for _, m := range []*Memory{child, donor} {
		m.eachResident(func(_ uint64, p page) {
			if p.cow {
				aliased[p.data] = true
			}
		})
	}
	owned := child.Stats().ResidentPages - child.Stats().AliasedPages
	if owned == 0 || len(shared) == 0 || len(aliased) == 0 {
		t.Fatalf("the child owns %d pages and shares %d structures and %d buffers: nothing to tell apart", owned, len(shared), len(aliased))
	}

	child.Release()
	for _, l := range f.leaves {
		if shared[l] {
			t.Fatal("release handed back a node the guest shared")
		}
	}
	for _, ch := range f.chunks {
		if shared[ch] {
			t.Fatal("release handed back a chunk the guest shared")
		}
	}
	for _, d := range f.pages {
		if aliased[d] {
			t.Fatal("release handed back bytes the guest aliased")
		}
	}
	if len(f.pages) != owned {
		t.Fatalf("release handed back %d page buffers, the guest owned %d", len(f.pages), owned)
	}
	checkBigArtifact(t)
	if err := src.Verify(); err != nil {
		t.Fatal(err)
	}
	again := f.New(dirTestSize, nil)
	again.SetKey(key(5), 5)
	if err := again.AdoptFork(src); err != nil {
		t.Fatal(err)
	}
	got, err := again.GuestRead(4*leafBytes+9*PageSize, 5, false)
	if err != nil || !bytes.Equal(got, []byte("owned")) {
		t.Fatalf("a fork of the source after a sibling's release reads %q (err %v)", got, err)
	}
}

// owned counts the structures a guest owns, by kind: what Release would
// hand back.
func owned(m *Memory) (n [4]int) {
	if m.dir == nil {
		return n
	}
	n[0] = 1
	for _, e := range m.dir {
		if e.leaf == nil || e.frozen {
			continue
		}
		n[1]++
		for c, ch := range e.leaf.chunks {
			if ch == nil || e.leaf.shared&(1<<c) != 0 {
				continue
			}
			n[2]++
			for _, p := range ch {
				if p.data != nil && !p.cow {
					n[3]++
				}
			}
		}
	}
	return n
}

// TestFreeListsStayWithinPeak: guests come and go on one host in a seeded
// order, writing, copying and aliasing as they live; after every step each
// free list holds no more than the peak the live guests ever owned of its
// kind, less what they own now — nothing is allocated while a released
// structure of its kind waits.
func TestFreeListsStayWithinPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := &FreeLists{}
	big := bigArtifact()
	var live []*Memory
	var peak, held [4]int // held: the most each free list held
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(live) == 0:
			live = append(live, f.New(dirTestSize, nil))
		case op < 5:
			j := rng.Intn(len(live))
			live[j].Release()
			live = append(live[:j], live[j+1:]...)
		default:
			m := live[rng.Intn(len(live))]
			var err error
			switch rng.Intn(3) {
			case 0:
				err = m.HostWrite(uint64(rng.Intn(dirTestSize-3*PageSize)), make([]byte, 1+rng.Intn(2*PageSize)))
			case 1:
				err = m.HostWriteArtifact(uint64(rng.Intn(2))*leafBytes, big, 0, chunkBytes+rng.Intn(leafBytes))
			default: // out of the first two leaves, into the next two
				err = m.GuestCopy(uint64(2*leafPages+rng.Intn(2*leafPages))*PageSize, uint64(rng.Intn(2))*leafBytes, 3*PageSize, false, false)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var now [4]int
		for _, m := range live {
			for k, n := range owned(m) {
				now[k] += n
			}
		}
		free := [4]int{len(f.dirs), len(f.leaves), len(f.chunks), len(f.pages)}
		for k := range now {
			peak[k], held[k] = max(peak[k], now[k]), max(held[k], free[k])
			if free[k] > peak[k]-now[k] {
				t.Fatalf("step %d: free list %d holds %d, the live guests own %d and peaked at %d", step, k, free[k], now[k], peak[k])
			}
		}
	}
	for k, n := range held {
		if n == 0 {
			t.Fatalf("free list %d never held anything (peaks %v): the stream released nothing of its kind", k, peak)
		}
	}
}
