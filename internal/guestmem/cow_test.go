package guestmem

// CoW / shared-artifact semantics tests: aliased pages must be
// bit-identical to the canonical artifact, writes must never leak across
// guests sharing an artifact, and every range-digest fast path must
// produce exactly the hash of the bytes a plain read would return.

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/telemetry"
)

// internedBuf builds an interned artifact of n deterministic bytes.
func internedBuf(seed int64, n int) ([]byte, *artifact.Buf) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return data, artifact.Intern(data)
}

func TestCoWAliasBitIdentical(t *testing.T) {
	data, _ := internedBuf(11, 3*PageSize+777) // non-page-multiple tail
	a := New(1 << 20)
	b := New(1 << 20)
	for _, m := range []*Memory{a, b} {
		if err := m.HostWriteAliased(0x4000, data); err != nil {
			t.Fatal(err)
		}
		got, err := m.GuestRead(0x4000, len(data), false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("aliased range reads back different bytes")
		}
		view, ok, err := m.RangeView(0x4000, len(data), false)
		if err != nil || !ok {
			t.Fatalf("RangeView: ok=%v err=%v, want zero-copy hit", ok, err)
		}
		if !bytes.Equal(view, data) {
			t.Fatal("zero-copy view differs from canonical bytes")
		}
	}
}

// cowShapes are the two shapes the alias tests run in: a few pages inside
// a leaf each guest owns, and a run covering a whole leaf-aligned leaf,
// which both guests hold as one shared template.
var cowShapes = []struct {
	name       string
	n          int
	size       uint64
	gpaA, gpaB uint64
}{
	{"pages", 4 * PageSize, 1 << 20, 0x4000, 0x8000},
	{"template leaf", leafBytes + 2*PageSize, 4 * leafBytes, leafBytes, 2 * leafBytes},
}

// counterOf reads one counter of a recorder.
func counterOf(rec *telemetry.HostRecorder, name string) int64 {
	_, c := rec.Snapshot()
	return c[name]
}

func TestCoWNoCrossGuestWriteLeak(t *testing.T) {
	for _, sh := range cowShapes {
		t.Run(sh.name, func(t *testing.T) {
			data, art := internedBuf(22, sh.n)
			orig := append([]byte(nil), data...)
			a, b := New(sh.size), New(sh.size)
			recA, recB := telemetry.NewHostRecorder(), telemetry.NewHostRecorder()
			a.rec = recA
			b.rec = recB
			if err := a.HostWriteAliased(sh.gpaA, data); err != nil {
				t.Fatal(err)
			}
			if err := b.HostWriteAliased(sh.gpaB, data); err != nil {
				t.Fatal(err)
			}
			shared := sh.n >= leafBytes
			ea, eb := a.dir[sh.gpaA/leafBytes], b.dir[sh.gpaB/leafBytes]
			if shared && (!ea.template || ea.leaf != eb.leaf) {
				t.Fatal("two guests staging one whole leaf of an artifact do not share its template")
			}
			kept := pagesOf(eb.leaf)
			// Guest A scribbles over its copy of the shared pages.
			if err := a.GuestWrite(sh.gpaA+100, []byte("guest A private state"), false); err != nil {
				t.Fatal(err)
			}
			// The canonical artifact and guest B are unaffected.
			if !bytes.Equal(data, orig) {
				t.Fatal("write through an alias mutated the canonical artifact")
			}
			got, err := b.GuestRead(sh.gpaB, len(data), false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, orig) {
				t.Fatal("guest A's write leaked into guest B")
			}
			if b.dir[sh.gpaB/leafBytes] != eb || pagesOf(eb.leaf) != kept {
				t.Fatal("guest A's write changed guest B's page state")
			}
			if sum, err := b.HashRange(sh.gpaB, len(data), false); err != nil || sum != art.Digest() || counterOf(recB, "guestmem.digest.memo") != 1 {
				t.Fatalf("guest B's digest no longer comes from the artifact's memo (err %v)", err)
			}
			// A's view provenance is gone for the written page, and its digest
			// reflects the new bytes, not the memoized artifact digest.
			wantA, err := a.GuestRead(sh.gpaA, len(data), false)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := a.HashRange(sh.gpaA, len(data), false)
			if err != nil {
				t.Fatal(err)
			}
			if sum != sha256.Sum256(wantA) {
				t.Fatal("digest after CoW break does not match actual bytes")
			}
			if sum == sha256.Sum256(orig) {
				t.Fatal("digest after CoW break still reports pristine artifact bytes")
			}
			if counterOf(recA, "guestmem.digest.streamed") != 1 || counterOf(recA, "guestmem.digest.memo") != 0 {
				t.Fatal("guest A's digest did not take the streamed path")
			}
			// The write cost A one page's alias, not the leaf's.
			if a.dir[sh.gpaA/leafBytes].frozen {
				t.Fatal("guest A stored into a leaf it does not own")
			}
			for i := 0; i < sh.n/PageSize; i++ {
				p := a.look(sh.gpaA/PageSize + uint64(i))
				if wrote := i == 0; (p.art == art && p.cow && int(p.artOff) == i*PageSize) == wrote {
					t.Fatalf("page %d of guest A: provenance kept = %v", i, !wrote)
				}
			}
		})
	}
}

func TestRangeDigestsMatchShaOfReads(t *testing.T) {
	data, _ := internedBuf(34, 5*PageSize+123)
	m := New(1 << 20)
	m.SetKey(key(9), 7)

	// Aliased shared range (artifact memo path).
	if err := m.HostWriteAliased(0x4000, data); err != nil {
		t.Fatal(err)
	}
	// Plain copied range (streaming path).
	plain := bytes.Repeat([]byte("copied-bytes"), 900)
	if err := m.HostWrite(0x20000, plain); err != nil {
		t.Fatal(err)
	}
	// Private guest-written range (transform path for cbit=false,
	// plain path for cbit=true).
	secret := bytes.Repeat([]byte("sekrit"), 2000)
	if err := m.GuestWrite(0x40000, secret, true); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		gpa  uint64
		n    int
		cbit bool
	}{
		{"aliased-shared", 0x4000, len(data), false},
		{"aliased-subrange", 0x4000 + 100, 2*PageSize + 50, false},
		{"copied-shared", 0x20000, len(plain), false},
		{"private-cbit", 0x40000, len(secret), true},
		{"private-ciphertext", 0x40000, len(secret), false},
	}
	for _, tc := range cases {
		want, err := m.GuestRead(tc.gpa, tc.n, tc.cbit)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := m.HashRange(tc.gpa, tc.n, tc.cbit)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != sha256.Sum256(want) {
			t.Fatalf("%s: HashRange != sha256(GuestRead)", tc.name)
		}
	}
}

func TestLaunchFlipKeepsProvenanceAndDigest(t *testing.T) {
	data, art := internedBuf(44, 4*PageSize+200)
	m := New(1 << 20)
	m.SetKey(key(10), 3)
	if err := m.HostWriteAliased(0x4000, data); err != nil {
		t.Fatal(err)
	}
	if err := m.LaunchUpdateFlip(0x4000, len(data)); err != nil {
		t.Fatal(err)
	}
	// The flipped range hashes via the artifact memo and matches the
	// plain bytes (pre-encryption measures plain text).
	sum, err := m.PlainRangeDigest(0x4000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if sum != art.Digest() || sum != sha256.Sum256(data) {
		t.Fatal("post-flip digest does not match artifact bytes")
	}
	// The private range is also zero-copy viewable with cbit set.
	view, ok, err := m.RangeView(0x4000, len(data), true)
	if err != nil || !ok {
		t.Fatalf("RangeView(cbit): ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(view, data) {
		t.Fatal("cbit view differs from plain artifact bytes")
	}
	// Host ciphertext restore (tampering with the private page) clears
	// provenance: digests fall back to hashing the real bytes.
	garbage := bytes.Repeat([]byte{0xA5}, PageSize)
	if err := m.HostRestoreCiphertext(0x5000, garbage); err != nil {
		t.Fatal(err)
	}
	got, err := m.GuestRead(0x4000, len(data), true)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := m.HashRange(0x4000, len(data), true)
	if err != nil {
		t.Fatal(err)
	}
	if sum2 != sha256.Sum256(got) {
		t.Fatal("post-tamper HashRange does not match actual guest bytes")
	}
	if sum2 == sum {
		t.Fatal("tampered range still reports the pristine digest")
	}
}

func TestGuestCopyPropagatesProvenance(t *testing.T) {
	data, _ := internedBuf(55, 3*PageSize)
	m := New(1 << 20)
	if err := m.HostWriteAliased(0x4000, data); err != nil {
		t.Fatal(err)
	}
	// Page-aligned GuestCopy aliases and carries provenance along.
	if err := m.GuestCopy(0x10000, 0x4000, len(data), false, false); err != nil {
		t.Fatal(err)
	}
	view, ok, err := m.RangeView(0x10000, len(data), false)
	if err != nil || !ok {
		t.Fatalf("copied range lost provenance: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(view, data) {
		t.Fatal("copied view differs")
	}
}

func TestExportPagesMatchesHostRead(t *testing.T) {
	m := New(1 << 20)
	m.SetKey(key(11), 5)
	if err := m.HostWrite(0x1000, bytes.Repeat([]byte("shared"), 1000)); err != nil {
		t.Fatal(err)
	}
	if err := m.GuestWrite(0x8000, bytes.Repeat([]byte("private"), 1200), true); err != nil {
		t.Fatal(err)
	}
	exports, err := m.ExportPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) == 0 {
		t.Fatal("no pages exported")
	}
	lastPN := uint64(0)
	for i, e := range exports {
		if i > 0 && e.PN <= lastPN {
			t.Fatal("exports not sorted by page number")
		}
		lastPN = e.PN
		want, err := m.HostRead(e.PN*PageSize, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Data, want) {
			t.Fatalf("exported page %d differs from HostRead", e.PN)
		}
		if e.Private != m.IsPrivate(e.PN*PageSize) {
			t.Fatalf("page %d private flag mismatch", e.PN)
		}
	}
}

// TestPaddedEdgePage: the ragged last page of an artifact staged whole is
// one zero-padded page that every guest staging it shares, without
// provenance. A store into one guest's copy stays in that guest. A Corrupt
// of a byte the page holds reaches the next guest that stages it — the
// memo goes with the artifact's other derived facts — while a guest staged
// before keeps the bytes it was given, as a copy would.
func TestPaddedEdgePage(t *testing.T) {
	data, art := internedBuf(44, 2*PageSize+777)
	const gpa, edge = 0x10000, 2 * PageSize
	stage := func() *Memory {
		m := New(1 << 20)
		if err := m.HostWriteAliased(gpa, data); err != nil {
			t.Fatal(err)
		}
		return m
	}
	edgeOf := func(m *Memory) page { return m.look((gpa + edge) / PageSize) }
	a, b := stage(), stage()
	if s := a.Stats(); s.ResidentPages != 3 || s.AliasedPages != 3 {
		t.Fatalf("staging two pages and a ragged tail: %+v, want all three aliased", s)
	}
	if pa, pb := edgeOf(a), edgeOf(b); pa.data != pb.data || !pa.cow || pa.art != nil {
		t.Fatal("two guests' edge pages are not one shared page without provenance")
	}
	want := append([]byte(nil), data[edge:]...)

	if err := a.HostWrite(gpa+edge+5, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.HostRead(gpa+edge, len(want)); !bytes.Equal(got, want) {
		t.Fatal("a store into one guest's edge page reached another guest's")
	}
	if edgeOf(stage()).data != edgeOf(b).data {
		t.Fatal("a store into one guest's edge page replaced the page the artifact keeps")
	}

	const off, mask = edge + 100, byte(0x5a)
	art.Corrupt(off, mask)
	defer art.Corrupt(off, mask)
	if got, _ := stage().HostRead(gpa+off, 1); got[0] != want[100]^mask {
		t.Fatal("a guest staged after Corrupt does not hold the tampered byte: the edge page outlived the corruption")
	}
	if got, _ := b.HostRead(gpa+off, 1); got[0] != want[100] {
		t.Fatal("Corrupt reached a guest staged before it")
	}
}

// TestCoWProvenanceUnderTampering: when the canonical artifact buffer is
// corrupted after interning (the chaos engine's artifact family), every
// digest path — the buffer's own memoized digests and the guest-side
// range digest over aliased pages — must recompute from the tampered
// bytes. A stale memo here would be a measurement lying about hostile
// content, the exact failure the boot verifier exists to prevent.
func TestCoWProvenanceUnderTampering(t *testing.T) {
	for _, sh := range cowShapes {
		t.Run(sh.name, func(t *testing.T) {
			data, buf := internedBuf(33, sh.n)
			clean := sha256.Sum256(append([]byte(nil), data...))
			m := New(sh.size)
			if err := m.HostWriteAliased(sh.gpaA, data); err != nil {
				t.Fatal(err)
			}
			if d := buf.Digest(); d != clean {
				t.Fatal("canonical digest differs from plain SHA-256")
			}
			if d, err := m.PlainRangeDigest(sh.gpaA, len(data)); err != nil || d != clean {
				t.Fatalf("aliased range digest %x (err=%v), want clean digest", d[:8], err)
			}

			// Tamper the canonical bytes. XOR is self-inverting: restore after.
			const off, mask = 2*PageSize + 123, byte(0x5a)
			buf.Corrupt(off, mask)
			defer buf.Corrupt(off, mask)
			dirty := sha256.Sum256(buf.Bytes())
			if dirty == clean {
				t.Fatal("corruption did not change the bytes")
			}
			if d := buf.Digest(); d != dirty {
				t.Fatalf("memoized full digest served stale hash after tamper: %x", d[:8])
			}
			if d := buf.RangeDigest(2*PageSize, PageSize); d != sha256.Sum256(buf.Bytes()[2*PageSize:3*PageSize]) {
				t.Fatal("memoized range digest served stale hash after tamper")
			}
			if d, err := m.PlainRangeDigest(sh.gpaA, len(data)); err != nil || d != dirty {
				t.Fatalf("guest range digest %x (err=%v), want tampered digest %x", d[:8], err, dirty[:8])
			}

			// A second guest aliasing the same artifact — through the same
			// template leaf, when the run covers one — sees the same tampered
			// bytes: one canonical copy, one truth.
			m2 := New(sh.size)
			if err := m2.HostWriteAliased(sh.gpaB, data); err != nil {
				t.Fatal(err)
			}
			if d, err := m2.PlainRangeDigest(sh.gpaB, len(data)); err != nil || d != dirty {
				t.Fatalf("second guest digest %x (err=%v), want %x", d[:8], err, dirty[:8])
			}

			// Breaking the alias in one guest (a host write to an aliased page)
			// must copy-on-write: that guest diverges, the canonical buffer and
			// the other guest do not.
			if err := m.HostWrite(sh.gpaA, []byte{0xff, 0xfe}); err != nil {
				t.Fatal(err)
			}
			private, err := m.PlainRangeDigest(sh.gpaA, len(data))
			if err != nil {
				t.Fatal(err)
			}
			if private == dirty {
				t.Fatal("host write did not change the writing guest's view")
			}
			if d := buf.Digest(); d != dirty {
				t.Fatal("alias-breaking write leaked into the canonical buffer")
			}
			if d, err := m2.PlainRangeDigest(sh.gpaB, len(data)); err != nil || d != dirty {
				t.Fatalf("alias-breaking write in one guest leaked into another: %x (err=%v)", d[:8], err)
			}
		})
	}
}
