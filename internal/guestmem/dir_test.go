package guestmem

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/rmp"
	"github.com/severifast/severifast/internal/telemetry"
)

// LaunchUpdate and Resident are Memory methods only the tests call: the
// PSP measures through PlainRangeDigest and LaunchUpdateFlip, and nothing
// outside the package asks whether a page is backed.

// LaunchUpdate is the memory side of LAUNCH_UPDATE_DATA: it returns the
// current plain text of [gpa, gpa+n) for measurement and flips the pages
// to private (encrypting them under the guest key). Under SNP the pages
// become assigned+validated for this guest.
func (m *Memory) LaunchUpdate(gpa uint64, n int) ([]byte, error) {
	if err := m.check(gpa, n); err != nil {
		return nil, err
	}
	if m.key == nil {
		return nil, ErrNoKey
	}
	pt := make([]byte, n)
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		p := m.getPage(pn)
		copy(pt[done:], p.readable()[off:off+chunk])
		p.encrypted = true
		done += chunk
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		m.rmp.AssignValidatedRange(base, span, m.asid)
	}
	return pt, nil
}

// Resident reports whether the page containing gpa has any backing.
func (m *Memory) Resident(gpa uint64) bool {
	if gpa >= m.size {
		return false
	}
	p := m.look(gpa / PageSize)
	return p.data != nil || p.encrypted
}

// The slow reference the page directory is checked against: a map of
// pages, each holding its own private copy of its bytes, with a per-page
// set standing in for the RMP. It shares no code with Memory — not the
// directory, not copy-on-write, not the cipher plumbing, not the span
// RMP — and restates only the rules that are observable: which writes
// alias (Stats.AliasedPages counts them), which pages a GuestCopy leaves
// unbacked, and what each access is refused for. One of those rules turns
// on where a page's bytes came from — a GuestCopy whose source is one run
// of an artifact aliases at any alignment — so a page remembers the
// artifact and offset it was last aliased from, until a store forgets it.
//
// One buffer is held by reference, because a copy per page per guest of a
// two-leaf artifact is more memory than the test may take: bigArtifact's.
// The reference never stores into it (write copies such a page out first),
// and checkBigArtifact holds its SHA-256 to what it was when generated, so
// a store Memory leaks into it fails the test by digest instead of by
// disagreement.

type refPage struct {
	data      []byte // nil = no backing; shared with nothing, unless big
	big       bool   // data is a window of bigArtifact, kept by reference
	cow       bool
	encrypted bool

	art    *artifact.Buf // data was aliased from art.Bytes()[artOff:] and not stored to since
	artOff int
}

// held is what a page keeps of src, a window of art's bytes (or of no
// artifact's): its own copy, unless the artifact is the big one.
func held(src []byte, art *artifact.Buf) (data []byte, big bool) {
	if art != nil && art == bigArtifact() {
		return src, true
	}
	return append([]byte(nil), src...), false
}

// contents is what a page that takes p's bytes keeps, by the same rule.
func (p refPage) contents() (data []byte, big bool) {
	if p.big {
		return p.data, true
	}
	return append([]byte(nil), p.plain()...), false
}

type refMem struct {
	size  uint64
	pages map[uint64]*refPage
	block cipher.Block
	asid  uint32
	snp   bool
	owned map[uint64]bool // assigned+validated to this guest

	shifted int       // GuestCopies that took the shifted alias
	took    pathTally // counts, by name, the page-sharing rules writes take; shared by a run's guests
}

func newRef(size uint64, key []byte, asid uint32, snp bool, took pathTally) *refMem {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	return &refMem{size: size, pages: map[uint64]*refPage{}, block: block, asid: asid, snp: snp, owned: map[uint64]bool{}, took: took}
}

func (r *refMem) page(pn uint64) *refPage {
	p := r.pages[pn]
	if p == nil {
		p = &refPage{}
		r.pages[pn] = p
	}
	return p
}

func (r *refMem) peek(pn uint64) refPage {
	if p := r.pages[pn]; p != nil {
		return *p
	}
	return refPage{}
}

func (p refPage) plain() []byte {
	if p.data == nil {
		return make([]byte, PageSize)
	}
	return p.data
}

func (r *refMem) transform(pn uint64, in []byte) []byte {
	var iv [16]byte
	binary.LittleEndian.PutUint32(iv[0:], r.asid)
	binary.LittleEndian.PutUint64(iv[8:], pn)
	out := make([]byte, PageSize)
	cipher.NewCTR(r.block, iv[:]).XORKeyStream(out, in)
	return out
}

func (r *refMem) inRange(gpa uint64, n int) bool { return gpa+uint64(n) <= r.size }

// span is the pages an n-byte access at gpa touches (n >= 1).
func span(gpa uint64, n int) (first, last uint64) {
	return gpa / PageSize, (gpa + uint64(n) - 1) / PageSize
}

func (r *refMem) hostMayWrite(gpa uint64, n int) bool {
	first, last := span(gpa, n)
	for pn := first; pn <= last; pn++ {
		if r.snp && r.owned[pn] {
			return false
		}
	}
	return true
}

func (r *refMem) guestMayTouch(gpa uint64, n int) bool {
	first, last := span(gpa, n)
	for pn := first; pn <= last; pn++ {
		if r.snp && !r.owned[pn] {
			return false
		}
	}
	return true
}

func (r *refMem) write(gpa uint64, data []byte, enc bool) {
	for done := 0; done < len(data); {
		a := gpa + uint64(done)
		chunk := min(PageSize-int(a%PageSize), len(data)-done)
		p := r.page(a / PageSize)
		if p.data == nil || p.big {
			p.data, p.big = append([]byte(nil), p.plain()...), false
		}
		copy(p.data[a%PageSize:], data[done:done+chunk])
		p.cow = false
		p.art, p.artOff = nil, 0
		p.encrypted = enc
		done += chunk
	}
}

// writeAliased restates the aliasing rule: a full page aliases its
// source; a sub-page write into an unbacked page aliases the artifact's
// page when the artifact holds zeros around the written bytes, and
// otherwise a page of the written bytes and zeros, with no provenance.
func (r *refMem) writeAliased(gpa uint64, data []byte, enc bool, art *artifact.Buf, artBase int) {
	for done := 0; done < len(data); {
		a := gpa + uint64(done)
		off := int(a % PageSize)
		chunk := min(PageSize-off, len(data)-done)
		p := r.page(a / PageSize)
		pa := artBase + done - off
		switch {
		case chunk == PageSize:
			p.data, p.big = held(data[done:done+PageSize], art)
			p.cow = true
			p.art, p.artOff = art, pa
		case p.data == nil && art != nil && pa >= 0 && pa+PageSize <= art.Len() &&
			allZero(art.Bytes()[pa:pa+off]) && allZero(art.Bytes()[pa+off+chunk:pa+PageSize]):
			p.data, p.big = held(art.Bytes()[pa:pa+PageSize], art)
			p.cow = true
			p.art, p.artOff = art, pa
		case p.data == nil && art != nil:
			p.data, p.big = make([]byte, PageSize), false
			copy(p.data[off:], data[done:done+chunk])
			p.cow = true
			p.art, p.artOff = nil, 0
			r.took["padded edge page shared"]++
		default:
			r.write(a, data[done:done+chunk], enc)
		}
		p.encrypted = enc
		done += chunk
	}
}

func (r *refMem) hostWrite(gpa uint64, data []byte, aliased bool, art *artifact.Buf, artBase int) bool {
	if !r.inRange(gpa, len(data)) || !r.hostMayWrite(gpa, len(data)) {
		return false
	}
	if aliased {
		r.writeAliased(gpa, data, false, art, artBase)
	} else {
		r.write(gpa, data, false)
	}
	return true
}

func (r *refMem) guestWrite(gpa uint64, data []byte, cbit, aliased bool, art *artifact.Buf, artBase int) bool {
	if !r.inRange(gpa, len(data)) || (cbit && !r.guestMayTouch(gpa, len(data))) {
		return false
	}
	if aliased {
		r.writeAliased(gpa, data, cbit, art, artBase)
	} else {
		r.write(gpa, data, cbit)
	}
	return true
}

// read assembles n bytes from gpa, each page as view renders it.
func (r *refMem) read(gpa uint64, n int, view func(pn uint64, p refPage) []byte) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		a := gpa + uint64(len(out))
		off := int(a % PageSize)
		chunk := min(PageSize-off, n-len(out))
		out = append(out, view(a/PageSize, r.peek(a/PageSize))[off:off+chunk]...)
	}
	return out
}

func (r *refMem) plainRead(gpa uint64, n int) []byte {
	return r.read(gpa, n, func(_ uint64, p refPage) []byte { return p.plain() })
}

func (r *refMem) hostRead(gpa uint64, n int) ([]byte, bool) {
	if !r.inRange(gpa, n) {
		return nil, false
	}
	return r.read(gpa, n, func(pn uint64, p refPage) []byte {
		if p.encrypted {
			return r.transform(pn, p.plain())
		}
		return p.plain()
	}), true
}

func (r *refMem) guestRead(gpa uint64, n int, cbit bool) ([]byte, bool) {
	if !r.inRange(gpa, n) || (cbit && !r.guestMayTouch(gpa, n)) {
		return nil, false
	}
	return r.read(gpa, n, func(pn uint64, p refPage) []byte {
		if p.encrypted != cbit {
			return r.transform(pn, p.plain())
		}
		return p.plain()
	}), true
}

// artifactRun restates when the n bytes at gpa are one run of an artifact:
// some page they touch was aliased from it, every page that was agrees on
// where in the artifact the byte at gpa sits, and the pages that were not
// hold the artifact's bytes all the same.
func (r *refMem) artifactRun(gpa uint64, n int) (art *artifact.Buf, base int) {
	first, last := span(gpa, n)
	for pn := first; pn <= last; pn++ {
		p := r.peek(pn)
		if p.art == nil {
			continue
		}
		at := p.artOff + int(gpa) - int(pn*PageSize)
		if art == nil {
			art, base = p.art, at
		} else if p.art != art || at != base {
			return nil, 0
		}
	}
	if art == nil || base < 0 || base+n > art.Len() || !bytes.Equal(r.plainRead(gpa, n), art.Bytes()[base:base+n]) {
		return nil, 0
	}
	return art, base
}

func (r *refMem) guestCopy(dst, src uint64, n int, dstCbit, srcCbit bool) bool {
	if !r.inRange(src, n) || !r.inRange(dst, n) || (src < dst+uint64(n) && dst < src+uint64(n)) {
		return false
	}
	if (srcCbit && !r.guestMayTouch(src, n)) || (dstCbit && !r.guestMayTouch(dst, n)) {
		return false
	}
	// plain: every source page the first k bytes touch moves as plain text.
	plain := func(k int) bool {
		for pn := src / PageSize; pn*PageSize < src+uint64(k); pn++ {
			if r.peek(pn).encrypted != srcCbit {
				return false
			}
		}
		return true
	}
	full := uint64(n) / PageSize
	switch {
	case dst%PageSize == 0 && src%PageSize == 0 && plain(int(full)*PageSize):
		// Page onto page: full pages alias their source page, which becomes
		// copy-on-write too. So does the tail, when its source page is
		// backed, moves as plain text and holds zeros past it, and its
		// destination is unbacked: the whole page lands the same either way.
		// Any other tail is read and written.
		share := func(dn, sn uint64) {
			dp := r.page(dn)
			if sp := r.pages[sn]; sp != nil && sp.data != nil {
				sp.cow = true
				*dp = refPage{cow: true, art: sp.art, artOff: sp.artOff}
				dp.data, dp.big = sp.contents()
			} else {
				*dp = refPage{}
			}
			dp.encrypted = dstCbit
		}
		for i := uint64(0); i < full; i++ {
			share(dst/PageSize+i, src/PageSize+i)
		}
		tail := n - int(full*PageSize)
		dn, sn := dst/PageSize+full, src/PageSize+full
		switch sp := r.peek(sn); {
		case tail == 0:
		case r.peek(dn).data == nil && sp.data != nil && sp.encrypted == srcCbit && allZero(sp.data[tail:]):
			share(dn, sn)
			r.took["GuestCopy tail shares source page"]++
		default:
			data, _ := r.guestRead(src+full*PageSize, tail, srcCbit)
			r.write(dst+full*PageSize, data, dstCbit)
		}
		return true
	case plain(n):
		// The shifted alias: a run of an artifact lands as a write of the
		// artifact's own bytes would, and the source pages are not touched.
		if art, base := r.artifactRun(src, n); art != nil {
			r.shifted++
			r.writeAliased(dst, art.Bytes()[base:base+n], dstCbit, art, base)
			return true
		}
	}
	data, _ := r.guestRead(src, n, srcCbit)
	r.write(dst, data, dstCbit)
	return true
}

// flip sets the state of every page the range touches.
func (r *refMem) flip(gpa uint64, n int, private bool) bool {
	if !r.inRange(gpa, n) {
		return false
	}
	first, last := span(gpa, n)
	for pn := first; pn <= last; pn++ {
		r.page(pn).encrypted = private
		r.owned[pn] = private
	}
	return true
}

func (r *refMem) restoreCiphertext(gpa uint64, ct []byte) bool {
	if !r.inRange(gpa, len(ct)) {
		return false
	}
	pn := gpa / PageSize
	*r.page(pn) = refPage{data: r.transform(pn, ct), encrypted: true}
	r.owned[pn] = true
	return true
}

func (r *refMem) residentPNs() []uint64 {
	var pns []uint64
	for pn, p := range r.pages {
		if p.data != nil || p.encrypted {
			pns = append(pns, pn)
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

func (r *refMem) stats() Stats {
	var s Stats
	for _, p := range r.pages {
		if p.data != nil || p.encrypted {
			s.ResidentPages++
		}
		if p.cow {
			s.AliasedPages++
		}
		if p.encrypted {
			s.PrivatePages++
		}
	}
	return s
}

// refSource is a reference fork source: a deep copy of the resident pages.
// A page keeps where it was aliased from; the pages that were aliased from
// nowhere become, in page order, one artifact of the source's own, which is
// where every adopter's copy of them was aliased from.
type refSource struct {
	size  uint64
	pages map[uint64]refPage
}

func (r *refMem) export() *refSource {
	s := &refSource{size: r.size, pages: map[uint64]refPage{}}
	var dirty []byte
	for _, pn := range r.residentPNs() {
		if r.pages[pn].art == nil {
			dirty = append(dirty, r.pages[pn].plain()...)
		}
	}
	blob, copied := artifact.Of(dirty), 0
	for _, pn := range r.residentPNs() {
		p := r.pages[pn]
		sp := refPage{encrypted: p.encrypted, art: p.art, artOff: p.artOff}
		if sp.art == nil {
			sp.art, sp.artOff = blob, copied
			copied += PageSize
		}
		sp.data, sp.big = p.contents()
		s.pages[pn] = sp
	}
	return s
}

func (r *refMem) adopt(s *refSource) {
	for pn, sp := range s.pages {
		p := r.page(pn)
		*p = refPage{cow: true, encrypted: sp.encrypted, art: sp.art, artOff: sp.artOff}
		p.data, p.big = sp.contents()
		if sp.encrypted {
			r.owned[pn] = true
		}
	}
}

// --- the differential driver ---

// dirTestSize is five full leaves and three pages: the last leaf is
// partial, pages 500..530 straddle a leaf boundary, and the big artifact
// fits at leaf 1 or 2 with room to copy whole leaves of it further on.
const dirTestSize = (5*leafPages + 3) * PageSize

// bigArtifact is two leaves and a ragged tail of interned bytes: placed
// leaf-aligned, its first two leaves are whole-leaf writes. Built once, so
// the intern table holds one of them, not one per subtest.
var bigArtifact = sync.OnceValue(func() *artifact.Buf {
	data, art := internedBuf(77, 2*leafBytes+5*PageSize+300)
	bigArtifactSum = sha256.Sum256(data)
	return art
})

var bigArtifactSum [sha256.Size]byte // of the bytes as generated

// checkBigArtifact fails the test if anything has stored into the one
// buffer the reference does not copy.
func checkBigArtifact(t *testing.T) {
	t.Helper()
	if art := bigArtifact(); sha256.Sum256(art.Bytes()) != bigArtifactSum {
		t.Fatal("the big artifact's bytes changed: a store reached a buffer that guests only alias")
	}
}

// pathTally counts, by name, how often an op stream took each path that
// sharing nodes and chunks added, so a test can refuse to pass without them.
type pathTally map[string]int

func (t pathTally) add(o pathTally) {
	for k, v := range o {
		t[k] += v
	}
}

type guestPair struct {
	m *Memory
	r *refMem
}

type sourcePair struct {
	s *ForkSource
	r *refSource
}

// comparePages checks every per-page observable of pages [lo, hi). With
// flagsOnly, pages the reference never touched are checked for state
// only, not read back (a whole-guest sweep is mostly such pages).
func comparePages(t *testing.T, g guestPair, lo, hi uint64, flagsOnly bool) {
	t.Helper()
	for pn := lo; pn < hi; pn++ {
		gpa := pn * PageSize
		rp := g.r.peek(pn)
		if got, want := g.m.IsPrivate(gpa), rp.encrypted; got != want {
			t.Fatalf("page %d: IsPrivate = %v, reference %v", pn, got, want)
		}
		if got, want := g.m.Resident(gpa+7), rp.data != nil || rp.encrypted; got != want {
			t.Fatalf("page %d: Resident = %v, reference %v", pn, got, want)
		}
		if flagsOnly && g.r.pages[pn] == nil {
			continue
		}
		want, _ := g.r.hostRead(gpa, PageSize)
		if got, err := g.m.HostRead(gpa, PageSize); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("page %d: HostRead differs from reference (err %v)", pn, err)
		}
		for _, cbit := range []bool{false, true} {
			want, ok := g.r.guestRead(gpa, PageSize, cbit)
			got, err := g.m.GuestRead(gpa, PageSize, cbit)
			if (err == nil) != ok {
				t.Fatalf("page %d: GuestRead(cbit=%v) err = %v, reference allows = %v", pn, cbit, err, ok)
			}
			if ok && !bytes.Equal(got, want) {
				t.Fatalf("page %d: GuestRead(cbit=%v) differs from reference", pn, cbit)
			}
			got, _, err = g.m.GuestView(gpa, PageSize, cbit)
			if (err == nil) != ok || ok && !bytes.Equal(got, want) {
				t.Fatalf("page %d: GuestView(cbit=%v) differs from reference (err %v, reference allows %v)", pn, cbit, err, ok)
			}
		}
	}
}

// compareWhole checks the whole-guest observables, then every page.
func compareWhole(t *testing.T, g guestPair) {
	t.Helper()
	if got, want := g.m.Stats(), g.r.stats(); got != want {
		t.Fatalf("Stats = %+v, reference %+v", got, want)
	}
	exp, err := g.m.ExportPages()
	if err != nil {
		t.Fatal(err)
	}
	pns := g.r.residentPNs()
	if len(exp) != len(pns) {
		t.Fatalf("ExportPages returned %d pages, reference has %d resident", len(exp), len(pns))
	}
	for i, pn := range pns {
		want, _ := g.r.hostRead(pn*PageSize, PageSize)
		if exp[i].PN != pn || exp[i].Private != g.r.pages[pn].encrypted || !bytes.Equal(exp[i].Data, want) {
			t.Fatalf("ExportPages[%d] (pn %d) differs from reference page %d", i, exp[i].PN, pn)
		}
	}
	comparePages(t, g, 0, g.r.size/PageSize, true)
	if g.m.Resident(g.r.size) || g.m.IsPrivate(g.r.size) {
		t.Fatal("the first address past the guest reports backing")
	}
}

func compareDigest(t *testing.T, g guestPair, gpa uint64, n int) {
	t.Helper()
	want := sha256.Sum256(g.r.plainRead(gpa, n))
	got, err := g.m.PlainRangeDigest(gpa, n)
	if err != nil || got != want {
		t.Fatalf("PlainRangeDigest(%#x, %d) differs from SHA-256 of the reference bytes (err %v)", gpa, n, err)
	}
}

// stagingArtifact is shaped like a launch plan's staging blob: page k
// holds bytes only in [100, 900), zeros around them, so a sub-page write
// of exactly those bytes into an unbacked page takes the aliasing branch.
func stagingArtifact(rng *rand.Rand) *artifact.Buf {
	b := make([]byte, 8*PageSize)
	for k := 0; k < 8; k++ {
		rng.Read(b[k*PageSize+100 : k*PageSize+900])
	}
	return artifact.Of(b)
}

// runDirectoryOps drives Memory and the reference through ops seeded
// operations. onExport, when non-nil, sees every fork source the stream
// exports, with its donor still in the state it was exported from. The
// tally says which sharing paths the stream reached. At the root: "share
// <op>" a root entry pointed at a template leaf by that entry point, "thaw
// <op>" a template node copied out by that single store, "GuestCopy
// template->misaligned" and "GuestCopy owned" the copies that must not
// share, "export" and "adopt" template entries kept by reference and
// adopted. "share GuestCopy shifted" is a template shared by a copy between
// addresses that are not page-aligned, "GuestCopy shifted sub-leaf" the
// same alias taken by the small copies, where no whole leaf is in reach.
// One level down: "thaw chunk <op>" a shared chunk of a node the guest owns
// copied out by that single store, "share chunk into <nil|owned|template>
// slot" a chunk template installed by a write of whole chunks inside a slot
// that held that, "GuestCopy chunk->chunk" one installed by a copy,
// "export shared chunk" a chunk the donor shared kept by reference, "adopt
// over <an owned|a shared> chunk" a source chunk overlaid on a chunk of a
// node the adopter already held. One page down, the reference names the
// two rules that share a page a write does not fill: "padded edge page
// shared" a sub-page write of an artifact's bytes into an unbacked page,
// "GuestCopy tail shares source page" a page-aligned copy's tail.
//
// Every guest comes from free, a host's free lists, or is made by New when
// free is nil; a guest the stream retires is released either way, so with
// free lists its successors draw what it owned.
func runDirectoryOps(t *testing.T, seed int64, snp bool, ops int, free *FreeLists, onExport func(donor *Memory, s *ForkSource)) pathTally {
	rng := rand.New(rand.NewSource(seed))
	zr := rand.New(rand.NewSource(^seed)) // draws the never-written ranges, so the op stream stays as it was
	k, asid := key(byte(seed)), uint32(5)
	rec, tally := telemetry.NewHostRecorder(), pathTally{}
	counter := func(name string) int { return int(counterOf(rec, name)) }
	templates := func(dir []dirEntry) (n int) {
		for _, e := range dir {
			if e.template {
				n++
			}
		}
		return n
	}
	slotKind := func(e dirEntry) string {
		switch {
		case e.leaf == nil:
			return "nil"
		case e.template:
			return "template"
		case e.frozen:
			return "forked"
		}
		return "owned"
	}
	// sharedChunk reports whether page pn sits in a chunk its guest shares
	// through a node it owns.
	sharedChunk := func(m *Memory, pn uint64) bool {
		e := m.dir[pn/leafPages]
		c := pn % leafPages / chunkPages
		return e.leaf != nil && !e.frozen && e.leaf.chunks[c] != nil && e.leaf.shared&(1<<c) != 0
	}
	newGuest := func() guestPair {
		m := free.New(dirTestSize, rec)
		m.SetKey(k, asid)
		if snp {
			m.AttachRMP(rmp.New(), asid)
		}
		return guestPair{m, newRef(dirTestSize, k, asid, snp, tally)}
	}
	guests := []guestPair{newGuest()}
	// admit brings a new, empty guest into the stream, in place of an old
	// one once there are six. The old one is released first, so the new one
	// draws what it owned; a released guest must refuse every access, unless
	// it is a donor, which is never released.
	admit := func() guestPair {
		if len(guests) < 6 {
			guests = append(guests, newGuest())
			return guests[len(guests)-1]
		}
		j := rng.Intn(len(guests))
		old := guests[j].m
		old.Release()
		if _, err := old.HostRead(0, 1); !old.donor && !errors.Is(err, ErrReleased) {
			t.Fatalf("a released guest's HostRead: err = %v, want ErrReleased", err)
		}
		guests[j] = newGuest()
		return guests[j]
	}
	var sources []sourcePair

	dense := make([]byte, 6*PageSize+300)
	rng.Read(dense)
	denseArt := artifact.Of(dense)
	staging := stagingArtifact(rng)
	interned := make([]byte, 2*PageSize+50)
	rng.Read(interned)
	internedArt := artifact.Intern(interned)
	big := bigArtifact()

	var cur *Memory // the guest the op being drawn is for
	pickPN := func() uint64 {
		switch rng.Intn(6) {
		case 0:
			return uint64(rng.Intn(16))
		case 1:
			return dirTestSize/PageSize - 13 + uint64(rng.Intn(16)) // runs off the end now and then
		case 2: // inside a template leaf the guest shares, when it has one
			leaf := uint64(1 + rng.Intn(3))
			var held []uint64
			for i, e := range cur.dir {
				if e.template {
					held = append(held, uint64(i))
				}
			}
			if len(held) > 0 {
				leaf = held[rng.Intn(len(held))]
			}
			return leaf*leafPages + uint64(rng.Intn(leafPages))
		case 3: // inside a chunk the guest shares through a node it owns, when it has one
			var held []uint64
			for pn := uint64(0); pn < dirTestSize/PageSize; pn += chunkPages {
				if sharedChunk(cur, pn) {
					held = append(held, pn)
				}
			}
			if len(held) == 0 {
				return uint64(rng.Intn(16))
			}
			return held[rng.Intn(len(held))] + uint64(rng.Intn(chunkPages))
		default:
			return uint64(1+rng.Intn(2))*leafPages - 12 + uint64(rng.Intn(30))
		}
	}
	// Where the big operations start: a leaf boundary, or one page past it.
	pickLeafGPA := func(lo, hi int) uint64 {
		return uint64(lo+rng.Intn(hi-lo+1))*leafBytes + uint64(rng.Intn(2))*PageSize
	}
	pickLen := func() int {
		switch rng.Intn(4) {
		case 0:
			return 1 + rng.Intn(300)
		case 1:
			return PageSize
		case 2:
			return (1 + rng.Intn(3)) * PageSize
		default:
			return (1+rng.Intn(2))*PageSize + 1 + rng.Intn(500)
		}
	}
	pickGPA := func() uint64 {
		gpa := pickPN() * PageSize
		if rng.Intn(2) == 0 {
			gpa += uint64(rng.Intn(PageSize))
		}
		return gpa
	}
	fresh := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	agree := func(op string, err error, ok bool) {
		t.Helper()
		if (err == nil) != ok {
			t.Fatalf("%s: err = %v, reference allows = %v", op, err, ok)
		}
	}

	// No amount of child activity may have reached a frozen directory.
	retire := func(s sourcePair) {
		t.Helper()
		if err := s.s.Verify(); err != nil {
			t.Fatalf("a fork source no longer verifies: %v", err)
		}
		g := newGuest()
		if err := g.m.AdoptFork(s.s); err != nil {
			t.Fatal(err)
		}
		g.r.adopt(s.r)
		compareWhole(t, g)
	}

	for i := 0; i < ops; i++ {
		g := guests[rng.Intn(len(guests))]
		cur = g.m
		gpa, n, cbit := pickGPA(), pickLen(), rng.Intn(2) == 0
		op := rng.Intn(16)
		// The leaf-sized operations come in the last 200 of the stream, one
		// op in three: a guest that has met one holds thousands of pages,
		// every sweep from then on reads each of them back four ways, and
		// the checks are not what gets cut to pay for that.
		if i >= ops-200 && rng.Intn(3) == 0 {
			op = 16 + rng.Intn(9)
		} else if i >= ops-350 && rng.Intn(8) == 0 { // the chunk-sized ones cost a sweep less, so they start sooner, while some slots are still empty
			op = 25 + rng.Intn(4)
		}
		if op >= 16 && op < 20 { // the big writes start at a leaf, or one page off
			gpa = pickLeafGPA(1, 2)
		}
		name := ""
		shared, owned := counter("guestmem.leaf.shared"), counter("guestmem.leaf.owned")
		chunksShared, chunksOwned := counter("guestmem.chunk.shared"), counter("guestmem.chunk.owned")
		thawable := gpa < dirTestSize && g.m.dir[gpa/leafBytes].template
		chunkThawable := gpa < dirTestSize && sharedChunk(g.m, gpa/PageSize)
		switch op {
		case 0:
			name = "HostWrite"
			data := fresh(n)
			agree(name, g.m.HostWrite(gpa, data), g.r.hostWrite(gpa, data, false, nil, 0))
		case 1:
			data, art := fresh(n), (*artifact.Buf)(nil)
			if rng.Intn(2) == 0 {
				data, art = interned, internedArt
			}
			agree("HostWriteAliased", g.m.HostWriteAliased(gpa, data), g.r.hostWrite(gpa, data, true, art, 0))
		case 2:
			off := rng.Intn(denseArt.Len() - n + 1)
			agree("HostWriteArtifact", g.m.HostWriteArtifact(gpa, denseArt, off, n),
				g.r.hostWrite(gpa, dense[off:off+n], true, denseArt, off))
		case 3: // the staging-blob shape: sub-page, GPA-congruent, zero-padded
			pn, k := pickPN(), rng.Intn(8)
			agree("HostWriteArtifact(staging)", g.m.HostWriteArtifact(pn*PageSize+100, staging, k*PageSize+100, 800),
				g.r.hostWrite(pn*PageSize+100, staging.Bytes()[k*PageSize+100:k*PageSize+900], true, staging, k*PageSize+100))
		case 4:
			name = "GuestWrite"
			data := fresh(n)
			agree(name, g.m.GuestWrite(gpa, data, cbit), g.r.guestWrite(gpa, data, cbit, false, nil, 0))
		case 5:
			off := rng.Intn(denseArt.Len() - n + 1)
			agree("GuestWriteArtifact", g.m.GuestWriteArtifact(gpa, denseArt, off, n, cbit),
				g.r.guestWrite(gpa, dense[off:off+n], cbit, true, denseArt, off))
		case 6, 7: // page-aligned three times in four: the aliasing path
			src, dst := pickGPA(), gpa
			if rng.Intn(4) != 0 {
				src, dst = src&^(PageSize-1), dst&^(PageSize-1)
			} else if at := src &^ (PageSize - 1); rng.Intn(2) == 0 { // wherever it is, the source is a run of an artifact
				agree("HostWriteArtifact(stage)", g.m.HostWriteArtifact(at, denseArt, 0, denseArt.Len()),
					g.r.hostWrite(at, dense, true, denseArt, 0))
			}
			srcCbit := rng.Intn(2) == 0
			shifted := g.r.shifted
			agree("GuestCopy", g.m.GuestCopy(dst, src, n, cbit, srcCbit), g.r.guestCopy(dst, src, n, cbit, srcCbit))
			tally["GuestCopy shifted sub-leaf"] += g.r.shifted - shifted
		case 8:
			var want []byte
			if g.r.inRange(gpa, n) {
				want = g.r.plainRead(gpa, n)
			}
			got, err := g.m.LaunchUpdate(gpa, n)
			agree("LaunchUpdate", err, g.r.flip(gpa, n, true))
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("LaunchUpdate(%#x, %d) returned bytes that differ from the reference plain text", gpa, n)
			}
		case 9:
			name = "LaunchUpdateFlip"
			agree(name, g.m.LaunchUpdateFlip(gpa, n), g.r.flip(gpa, n, true))
		case 10:
			name = "ShareRange"
			agree(name, g.m.ShareRange(gpa, n), g.r.flip(gpa, n, false))
		case 11:
			name = "HostRestoreCiphertext"
			gpa &^= PageSize - 1
			ct := fresh(PageSize)
			agree(name, g.m.HostRestoreCiphertext(gpa, ct), g.r.restoreCiphertext(gpa, ct))
		case 12: // export — from a forked child as often as from a root
			s, err := g.m.ExportForkSource()
			if err != nil {
				t.Fatal(err)
			}
			tally["export"] += templates(s.dir)
			for i, e := range s.dir {
				if own := g.m.dir[i]; e.leaf != nil && !e.template {
					for c, ch := range e.leaf.chunks {
						if ch != nil && ch == own.leaf.chunks[c] {
							tally["export shared chunk"]++
							if bit := uint8(1) << c; e.leaf.template&bit != own.leaf.template&bit {
								t.Fatalf("export: chunk %d of slot %d kept by reference, but not what the donor knew of it (template %v)", c, i, own.leaf.template&bit != 0)
							}
						}
					}
				}
			}
			if sp := (sourcePair{s, g.r.export()}); len(sources) < 6 { // each is adopted and swept whole when it goes: keep few
				sources = append(sources, sp)
			} else {
				j := rng.Intn(len(sources))
				retire(sources[j])
				sources[j] = sp
			}
			if onExport != nil {
				onExport(g.m, s)
			}
		case 13, 14, 15: // adopt: onto an empty guest, or over whatever g holds
			if len(sources) == 0 {
				continue
			}
			s := sources[rng.Intn(len(sources))]
			if op != 15 {
				g = admit()
			}
			held := templates(g.m.dir)
			for i, e := range s.s.dir {
				if own := g.m.dir[i]; e.leaf != nil && !e.template && own.leaf != nil {
					for c, ch := range e.leaf.chunks {
						switch {
						case ch == nil || own.leaf.chunks[c] == nil:
						case own.frozen || own.leaf.shared&(1<<c) != 0:
							tally["adopt over a shared chunk"]++
						default:
							tally["adopt over an owned chunk"]++
						}
					}
				}
			}
			if err := g.m.AdoptFork(s.s); err != nil {
				t.Fatalf("AdoptFork: %v", err)
			}
			g.r.adopt(s.r)
			if n := templates(s.s.dir); n > 0 {
				tally["adopt"] += n
				if held > 0 {
					tally["adopt over templates"]++
				}
			}
		case 16: // the three aliased entry points over whole leaves of one artifact
			name, n = "HostWriteAliased", big.Len()
			agree(name, g.m.HostWriteAliased(gpa, big.Bytes()), g.r.hostWrite(gpa, big.Bytes(), true, big, 0))
		case 17:
			name = "HostWriteArtifact"
			off := rng.Intn(2) * PageSize
			n = big.Len() - off
			agree(name, g.m.HostWriteArtifact(gpa, big, off, n), g.r.hostWrite(gpa, big.Bytes()[off:], true, big, off))
		case 18:
			name = "GuestWriteArtifact"
			off := rng.Intn(2) * (PageSize + 300)
			n = big.Len() - off
			agree(name, g.m.GuestWriteArtifact(gpa, big, off, n, cbit), g.r.guestWrite(gpa, big.Bytes()[off:], cbit, true, big, off))
		case 19: // no handle: whole leaves, but nothing to memoise a template on
			data := fresh(leafBytes + PageSize)
			n = len(data)
			agree("HostWriteAliased(no handle)", g.m.HostWriteAliased(gpa, data), g.r.hostWrite(gpa, data, true, nil, 0))
		case 20, 21, 22: // whole leaves of whatever sits where the big artifact lands, onto the leaves after them or back at 0
			name = "GuestCopy"
			src := pickLeafGPA(1, 1)
			n = []int{leafBytes, leafBytes + 3*PageSize + 77, 2 * leafBytes}[rng.Intn(3)]
			gpa = (src+uint64(n)+leafBytes-1)/leafBytes*leafBytes + uint64(rng.Intn(2))*PageSize
			if rng.Intn(4) == 0 {
				gpa, n = uint64(rng.Intn(2))*PageSize, leafBytes-PageSize
			}
			if rng.Intn(3) != 0 { // stage the artifact there first: a shared mapping, so no RMP stands in the way
				agree("GuestWriteArtifact(stage)", g.m.GuestWriteArtifact(src, big, 0, big.Len(), false),
					g.r.guestWrite(src, big.Bytes(), false, true, big, 0))
			}
			shared = counter("guestmem.leaf.shared")
			srcCbit := g.r.peek(src/PageSize).encrypted != (rng.Intn(4) == 0)
			fromTemplate := g.m.dir[src/leafBytes].template && src%leafBytes == 0
			err := g.m.GuestCopy(gpa, src, n, cbit, srcCbit)
			agree(name, err, g.r.guestCopy(gpa, src, n, cbit, srcCbit))
			if err == nil && fromTemplate && gpa%leafBytes != 0 {
				tally["GuestCopy template->misaligned"]++
			}
			if err == nil && !fromTemplate {
				tally["GuestCopy owned"]++
			}
		case 24: // more than a leaf of the big artifact between addresses that are not page-aligned: leaf 4, whole inside the destination, shares a template
			name = "GuestCopy shifted"
			unaligned := func() uint64 { return uint64(1 + rng.Intn(PageSize-1) + rng.Intn(2)*PageSize) }
			at, head := pickLeafGPA(1, 1), unaligned()
			src := at + unaligned()
			gpa, n = 4*leafBytes-head, int(head)+leafBytes+rng.Intn(2*PageSize)
			if rng.Intn(3) != 0 {
				agree("GuestWriteArtifact(stage)", g.m.GuestWriteArtifact(at, big, 0, big.Len(), false),
					g.r.guestWrite(at, big.Bytes(), false, true, big, 0))
			}
			if cbit && rng.Intn(2) == 0 { // so that an RMP admits the private destination
				agree("LaunchUpdateFlip(dst)", g.m.LaunchUpdateFlip(gpa, n), g.r.flip(gpa, n, true))
			}
			shared = counter("guestmem.leaf.shared")
			srcCbit := g.r.peek(src/PageSize).encrypted != (rng.Intn(4) == 0)
			agree(name, g.m.GuestCopy(gpa, src, n, cbit, srcCbit), g.r.guestCopy(gpa, src, n, cbit, srcCbit))
		case 25, 26: // whole chunks of one artifact inside one slot, whatever it held: chunk templates, and a ragged end
			if rng.Intn(6) == 0 { // a guest every slot of which is still nil
				g = admit()
			}
			slot, first := uint64(rng.Intn(5)), uint64(rng.Intn(leafChunks-2))
			var held []uint64 // a slot of the kind drawn, when the guest has one
			for i, kind := 0, []string{"nil", "owned", "template"}[rng.Intn(3)]; i < 5; i++ {
				if slotKind(g.m.dir[i]) == kind {
					held = append(held, uint64(i))
				}
			}
			if len(held) > 0 {
				slot = held[rng.Intn(len(held))]
			}
			gpa, n = slot*leafBytes+first*chunkBytes, 2*chunkBytes+[]int{0, 3*PageSize + 77, chunkBytes - 9*PageSize + 77}[rng.Intn(3)]
			off, into := rng.Intn(2)*(PageSize+300), slotKind(g.m.dir[slot])
			var err error
			if rng.Intn(2) == 0 {
				err = g.m.HostWriteArtifact(gpa, big, off, n)
				agree("HostWriteArtifact(chunks)", err, g.r.hostWrite(gpa, big.Bytes()[off:off+n], true, big, off))
			} else {
				err = g.m.GuestWriteArtifact(gpa, big, off, n, cbit)
				agree("GuestWriteArtifact(chunks)", err, g.r.guestWrite(gpa, big.Bytes()[off:off+n], cbit, true, big, off))
			}
			if err == nil {
				if counter("guestmem.chunk.shared") != chunksShared+2 {
					t.Fatalf("op %d: an aliased write of two whole chunks inside a slot shared %d chunk templates", i, counter("guestmem.chunk.shared")-chunksShared)
				}
				tally["share chunk into "+into+" slot"]++
			}
		case 27, 28: // whole chunks out of wherever the big artifact lands, onto a chunk boundary in the last slot or the first
			at := uint64(leafBytes + rng.Intn(leafChunks)*chunkBytes)
			src := at + uint64(rng.Intn(4))*chunkBytes
			gpa, n = uint64(rng.Intn(2))*4*leafBytes+uint64(rng.Intn(leafChunks-2))*chunkBytes, (1+rng.Intn(2))*chunkBytes+[]int{0, 2*PageSize + 55, chunkBytes - 7*PageSize + 55}[rng.Intn(3)]
			if rng.Intn(3) != 0 {
				agree("GuestWriteArtifact(stage)", g.m.GuestWriteArtifact(at, big, 0, big.Len(), false),
					g.r.guestWrite(at, big.Bytes(), false, true, big, 0))
			}
			chunksShared = counter("guestmem.chunk.shared")
			srcCbit := g.r.peek(src/PageSize).encrypted != (rng.Intn(4) == 0)
			agree("GuestCopy(chunks)", g.m.GuestCopy(gpa, src, n, cbit, srcCbit), g.r.guestCopy(gpa, src, n, cbit, srcCbit))
			tally["GuestCopy chunk->chunk"] += counter("guestmem.chunk.shared") - chunksShared
		case 23: // state changes across whole leaves, which is also what lets the RMP admit the big guest accesses
			if gpa, n = pickLeafGPA(1, 3), leafBytes+rng.Intn(leafBytes); rng.Intn(2) == 0 {
				agree("LaunchUpdateFlip(big)", g.m.LaunchUpdateFlip(gpa, n), g.r.flip(gpa, n, true))
			} else {
				agree("ShareRange(big)", g.m.ShareRange(gpa, n), g.r.flip(gpa, n, false))
			}
		}
		if name != "" {
			tally["share "+name] += counter("guestmem.leaf.shared") - shared
			if thawable && counter("guestmem.leaf.owned") > owned {
				tally["thaw "+name]++
			}
			if chunkThawable && counter("guestmem.chunk.owned") > chunksOwned {
				tally["thaw chunk "+name]++
			}
		}
		// Cheap checks after every op, everything every 50.
		if got, want := g.m.Stats(), g.r.stats(); got != want {
			t.Fatalf("op %d (kind %d): Stats = %+v, reference %+v", i, op, got, want)
		}
		if pn := gpa / PageSize; pn+4 <= dirTestSize/PageSize {
			comparePages(t, g, pn, pn+4, false)
			n = min(n, int(dirTestSize-gpa))
			compareDigest(t, g, gpa, n)
			if end := (gpa + uint64(n)) / PageSize; n >= leafBytes { // a big op: its ragged end too
				comparePages(t, g, end-3, min(end+1, dirTestSize/PageSize), false)
			}
		}
		// Up to eight pages from a random one, as far as the reference has
		// never written them.
		zpn := uint64(zr.Intn(dirTestSize / PageSize))
		zend := min(zpn+1+uint64(zr.Intn(8)), dirTestSize/PageSize)
		for pn := zpn; pn < zend; pn++ {
			if p := g.r.pages[pn]; p != nil && p.data != nil {
				zend = pn
			}
		}
		if zoff := uint64(zr.Intn(PageSize / 2)); zend > zpn {
			zn := int((zend-zpn)*PageSize-zoff) - zr.Intn(PageSize/2)
			compareDigest(t, g, zpn*PageSize+zoff, zn)
			if g.m.unbacked(zpn*PageSize+zoff, zn) {
				tally["digest of a never-written range"]++
			}
		}
		if i%50 == 49 {
			for _, g := range guests {
				compareWhole(t, g)
			}
			checkBigArtifact(t)
		}
	}
	for _, g := range guests {
		compareWhole(t, g)
	}
	checkBigArtifact(t)
	for _, s := range sources {
		retire(s)
	}
	for _, kind := range []string{"dir", "leaf", "chunk", "page"} {
		tally["reused "+kind] += counter("guestmem." + kind + ".reused")
	}
	return tally
}

// TestDirectoryMatchesMapReference drives Memory and the map-of-pages
// reference with the same seeded op stream — every write path, copies
// within one leaf and out of shared leaves, state flips, adoption onto
// empty and non-empty guests, re-export from forked children — and
// requires every observable to agree, with and without an RMP.
func TestDirectoryMatchesMapReference(t *testing.T) {
	for _, snp := range []bool{false, true} {
		tally := pathTally{}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("snp=%v/seed=%d", snp, seed), func(t *testing.T) {
				tally.add(runDirectoryOps(t, seed, snp, 700, nil, nil))
			})
		}
		// Agreement with the reference proves nothing about template leaves
		// unless the streams reached them, by every way in and out.
		t.Logf("snp=%v: %v", snp, tally)
		for _, path := range []string{
			"share HostWriteAliased", "share HostWriteArtifact", "share GuestWriteArtifact", "share GuestCopy",
			"GuestCopy template->misaligned", "GuestCopy owned", "share GuestCopy shifted", "GuestCopy shifted sub-leaf",
			"thaw HostWrite", "thaw GuestWrite", "thaw LaunchUpdateFlip", "thaw ShareRange", "thaw HostRestoreCiphertext",
			"export", "adopt", "adopt over templates",
			"thaw chunk HostWrite", "thaw chunk GuestWrite", "thaw chunk LaunchUpdateFlip", "thaw chunk ShareRange", "thaw chunk HostRestoreCiphertext",
			"share chunk into nil slot", "share chunk into owned slot", "share chunk into template slot", "GuestCopy chunk->chunk",
			"export shared chunk", "adopt over an owned chunk", "adopt over a shared chunk",
			"padded edge page shared", "GuestCopy tail shares source page", "digest of a never-written range",
		} {
			if !t.Failed() && tally[path] == 0 {
				t.Errorf("snp=%v: the op streams never took path %q (tally %v)", snp, path, tally)
			}
		}
	}
}

// TestGuestCopyTailMatchesReference enumerates what decides whether a
// page-aligned copy's tail shares its source page — the source page
// unbacked, zero past the tail or not; each of the full page and the tail
// page in either state, read through either mapping; the destination page
// unbacked or not; written through either mapping — and requires Memory to
// agree with the reference on each.
func TestGuestCopyTailMatchesReference(t *testing.T) {
	const src, dst, tail = 4 * PageSize, 20 * PageSize, 1000
	k, tally := key(9), pathTally{}
	rng := rand.New(rand.NewSource(9))
	agree := func(op string, err error, ok bool) {
		t.Helper()
		if (err == nil) != ok {
			t.Fatalf("%s: err = %v, reference allows = %v", op, err, ok)
		}
	}
	for _, srcPage := range []string{"unbacked", "zero past the tail", "bytes past the tail"} {
		for private := 0; private < 4; private++ { // bit 0 the full page, bit 1 the tail's
			for _, srcCbit := range []bool{false, true} {
				for _, dstBacked := range []bool{false, true} {
					for _, dstCbit := range []bool{false, true} {
						g := guestPair{New(32 * PageSize), newRef(32*PageSize, k, 1, false, tally)}
						g.m.SetKey(k, 1)
						head := make([]byte, PageSize+tail)
						rng.Read(head)
						if srcPage == "unbacked" {
							head = head[:PageSize]
						}
						agree("stage", g.m.HostWrite(src, head), g.r.hostWrite(src, head, false, nil, 0))
						if srcPage == "bytes past the tail" {
							agree("past the tail", g.m.HostWrite(src+PageSize+3000, []byte{7}), g.r.hostWrite(src+PageSize+3000, []byte{7}, false, nil, 0))
						}
						for i := uint64(0); i < 2; i++ {
							if private&(1<<i) != 0 {
								agree("flip", g.m.LaunchUpdateFlip(src+i*PageSize, 1), g.r.flip(src+i*PageSize, 1, true))
							}
						}
						if dstBacked {
							agree("destination", g.m.HostWrite(dst+PageSize+2000, []byte{9}), g.r.hostWrite(dst+PageSize+2000, []byte{9}, false, nil, 0))
						}
						agree("GuestCopy", g.m.GuestCopy(dst, src, PageSize+tail, dstCbit, srcCbit), g.r.guestCopy(dst, src, PageSize+tail, dstCbit, srcCbit))
						compareWhole(t, g)
					}
				}
			}
		}
	}
	if tally["GuestCopy tail shares source page"] == 0 {
		t.Fatal("no case shared the tail's source page")
	}
}

// Sizes that are not a multiple of the 2 MiB leaf span: the last leaf
// covers addresses past the guest, and those must read as outside it.
func TestResidentAndIsPrivateBoundedBySize(t *testing.T) {
	for _, size := range []uint64{257 << 20, 2<<20 + PageSize} {
		m := New(size)
		m.SetKey(key(1), 1)
		last := size - PageSize
		if err := m.HostWrite(last, []byte("last page")); err != nil {
			t.Fatal(err)
		}
		if err := m.LaunchUpdateFlip(last, 1); err != nil {
			t.Fatal(err)
		}
		if !m.Resident(size-1) || !m.IsPrivate(size-1) {
			t.Fatalf("size %#x: the last byte of the guest is not resident and private", size)
		}
		for _, gpa := range []uint64{size, size + PageSize, (size + leafPages*PageSize - 1) &^ (PageSize - 1), ^uint64(0)} {
			if m.Resident(gpa) || m.IsPrivate(gpa) {
				t.Fatalf("size %#x: address %#x past the guest reports backing", size, gpa)
			}
		}
		if err := m.HostWrite(size, []byte{1}); err == nil {
			t.Fatalf("size %#x: write at the first address past the guest succeeded", size)
		}
	}
}

// GuestCopy's two write-on-read hazards against a shared leaf: marking
// the source copy-on-write must not store into a frozen leaf, and taking
// the destination for writing replaces the very leaf the source sits in.
func TestGuestCopyInsideSharedLeaf(t *testing.T) {
	donor := New(2 * leafPages * PageSize)
	donor.SetKey(key(4), 2)
	text := bytes.Repeat([]byte("frozen "), 2*PageSize/7)
	if err := donor.HostWrite(8*PageSize, text); err != nil {
		t.Fatal(err)
	}
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	frozen := pagesOf(src.dir[0].leaf) // the leaf's page structs, by value

	child := New(donor.Size())
	child.ShareKey(donor)
	if err := child.AdoptFork(src); err != nil {
		t.Fatal(err)
	}
	// Source and destination in the same, still shared, leaf.
	if err := child.GuestCopy(32*PageSize, 8*PageSize, len(text), true, false); err != nil {
		t.Fatal(err)
	}
	if pagesOf(src.dir[0].leaf) != frozen {
		t.Fatal("GuestCopy stored into the frozen leaf")
	}
	got, err := child.GuestRead(32*PageSize, len(text), true)
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("copy out of a shared leaf lost the source bytes (err %v)", err)
	}
	// The copy aliases; a later write to the source must not show through.
	if err := child.HostWrite(8*PageSize, []byte("thawed")); err != nil {
		t.Fatal(err)
	}
	if got, _ := child.GuestRead(32*PageSize, len(text), true); !bytes.Equal(got, text) {
		t.Fatal("write to the copy's source showed through the alias")
	}
	if sibling := New(donor.Size()); sibling.AdoptFork(src) != nil || sibling.Resident(32*PageSize) {
		t.Fatal("a sibling sees the child's copy")
	}
}
