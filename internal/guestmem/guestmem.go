// Package guestmem implements a guest-physical address space with SEV
// memory-encryption semantics.
//
// Every page is either *shared* (plain text, visible to the host) or
// *private* (protected by the guest's memory-encryption key). Guest
// accesses carry the C-bit; host accesses never decrypt. Reading a private
// page from the host yields real AES-CTR ciphertext under the guest key,
// tweaked by the physical address — so, as on real hardware, identical
// plain text at different addresses (or under different guests) has
// different ciphertext, which is what defeats page deduplication for SEV
// guests (paper §7.1).
//
// Representation note: pages store plain text plus an "encrypted" flag;
// ciphertext is produced on demand when the host reads a private page.
// This is an internal representation choice that preserves every
// observable behaviour while letting identical kernel pages be shared
// copy-on-write across the 50-VM concurrency experiment.
//
// Page state lives in a three-level directory. The root has one 16-byte
// entry per 2 MiB of guest; an entry points at a leaf, a node of eight
// chunk pointers; a chunk is 64 page structs, 256 KiB of guest in 1.5 KiB,
// allocated on first touch. The zero page struct is an untouched page, a
// nil chunk 64 of them, a nil leaf 512, so a guest costs what it touches,
// not what it could address. Backing bytes may be shared between guests;
// page *state* belongs to one guest — unless it is immutable. Two kinds of
// node and chunk are, and any number of guests point at them: a
// ForkSource's, which nothing writes after ExportForkSource returns, and
// an artifact's templates (see dirEntry), which nothing writes once built.
// The flag that says "shared: copy before the first store" lives beside
// the pointer it describes at both levels — dirEntry.frozen for a node,
// the leaf's shared mask for a chunk — and copying is by level too: the
// first store below a shared node copies the node (ownLeaf, ~72 bytes, its
// chunks still shared), then the one chunk stored to (ownChunk), then
// breaks the one page's alias (mutable). Four functions assign a root entry
// or a chunk pointer: ownLeaf and ownChunk (fresh or copied, this guest's
// own), shareTemplate and shareChunk (a whole-leaf or whole-chunk install,
// where every page under the pointer is being overwritten anyway) and
// AdoptFork (the source's). Every other store goes through getPage.
//
// A never-backed page — one with no bytes yet, all zero whatever its
// state — is filled by reference when the filled page is the same on every
// boot. A sub-page write of an artifact's bytes into one aliases a page of
// those bytes and zeros that the artifact keeps (edgePage), and the tail of
// a page-aligned GuestCopy into one shares its source page when that page
// is zero past the tail. Both pages are copy-on-write, like any alias.
//
// When an RMP table is attached (SEV-SNP), host writes to assigned pages
// are blocked and guest private accesses to unvalidated pages raise #VC,
// both surfaced as errors from the access functions.
package guestmem

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/hostwork"
	"github.com/severifast/severifast/internal/rmp"
	"github.com/severifast/severifast/internal/telemetry"
)

// PageSize is the guest page granularity.
const PageSize = 4096

// Errors.
var (
	ErrOutOfRange = errors.New("guestmem: access beyond guest memory")
	ErrNoKey      = errors.New("guestmem: encryption key not set")
	ErrSize       = errors.New("guestmem: guest size mismatch")
)

// page is one guest page's state, three words so a 64-page chunk is
// 1.5 KiB. The zero value is an untouched page: all zero, shared, no
// provenance.
type page struct {
	data *[PageSize]byte // plain text; nil = all zero

	// Artifact provenance: when non-nil, data aliases
	// art.Bytes()[artOff:artOff+PageSize] and the bytes are immutable
	// for as long as the alias holds. Any write breaks the alias in
	// mutable() and clears the provenance, so a digest memoized through
	// art can never describe stale bytes. Pages without provenance are
	// always hashed for real.
	art    *artifact.Buf
	artOff uint32

	cow       bool // data is aliased; copy before mutating
	encrypted bool // page is private (guest-key protected)
}

// The directory's granules. A root slot covers leafPages pages, 2 MiB of
// guest: the THP / huge-page-validation granule, and what keeps the root —
// which every guest pays for, forked or not — at 16 bytes per 2 MiB (2 KiB
// of the 8.0 a warm_fork boot allocates; a flat directory of 64-page leaves
// makes that 23.8). A chunk is what a guest owns when it stores to a page. A cached cold lupine boot touches 24 slots: 15 it shares whole
// as template leaves; in the other 9 it owns the node, shares 28 chunk
// templates and owns 12 chunks, 18 KiB where nine dense 512-page leaves
// were 108. Measured on the benchmark, KiB / allocations per boot
// (cold_cached, cluster_zipf; image_churn builds its templates in the timed
// region, so it shows what smaller chunks cost): 32-page chunks 122.6 /
// 178.0, 130.4 / 232.1, image_churn 136.3 allocations; 64-page 127.8 /
// 178.0, 135.6 / 232.1, 135.3; 128-page 146.0 / 180.0, 153.8 / 234.1,
// 135.3; the dense 512-page leaf they replaced 248.6 / 183.0, 256.2 / 237.0,
// 134.5, of which 20.8 KiB and 5 allocations were page copies on the read
// path that went in the same change. warm_fork reads 8.00 KiB / 80.0 at
// every size: a forked boot owns no node.
const (
	chunkPages = 64
	chunkBytes = chunkPages * PageSize
	leafChunks = 8
	leafPages  = leafChunks * chunkPages
	leafBytes  = leafPages * PageSize
)

// chunk is the page state of chunkPages consecutive pages.
type chunk [chunkPages]page

// leaf is one root slot's node. Bit c of shared marks chunks[c] as one
// this node does not own: it is read through freely and copied by ownChunk
// before the first store. A shared chunk is part of a ForkSource's
// directory or — bit c of template set as well — an artifact's chunk
// template. The bits mean nothing for a nil chunk.
type leaf struct {
	chunks   [leafChunks]*chunk
	shared   uint8
	template uint8
}

// allChunks is a leaf mask with every chunk's bit set.
const allChunks = 1<<leafChunks - 1

// nodeSlab and chunkSlab are how many nodes and chunks one allocation
// yields: the 9 nodes a cold boot owns come as one slab, its 12 chunks as
// two, none stranded. Measured on cold_cached (cluster_zipf; image_churn),
// KiB / allocations per boot. Chunks singly 130.3 / 188.0 (138.1 / 242.1;
// 137.8 allocations), by twos 128.0 / 182.0 (135.8 / 236.1; 136.3), by
// fours 128.4 / 179.0 (136.2 / 233.1; 135.5), by sixes 127.8 / 178.0
// (135.6 / 232.1; 135.3), by twelves 127.9 / 177.0 (135.7 / 231.1; 135.0)
// but 179 MiB peak RSS against 170, and a boot that owns a thirteenth
// strands 16.5 KiB. Nodes singly 127.8 / 186.0, by threes 127.8 / 180.0, by
// nines 127.8 / 178.0.
const (
	nodeSlab  = 9
	chunkSlab = 6
)

// dirEntry is one root slot, 16 bytes. frozen marks a node this guest
// shares and must never store to: it is read through freely and copied by
// ownLeaf — the node only, every chunk of the copy marked shared — before
// the first store. A frozen node is either part of a ForkSource's
// directory, shared with every sibling fork, or — template set as well —
// an artifact's template leaf, shared with every guest in the process. So
// the flag that says "copy before the first store" lives beside the
// pointer it describes, at both levels.
//
// The template invariant: page j of a chunk template aliases
// art.Bytes()[off+j*PageSize:][:PageSize] copy-on-write with provenance
// (art, off+j*PageSize), for one artifact and one chunk-wide off, and all
// 64 pages are in one privacy state. A template leaf is a node of the
// eight chunk templates of leafBytes consecutive bytes in one state, every
// bit of both its masks set. So the first page speaks for a template: its
// state is every page's, and any page's (artifact, offset - position) is
// every page's.
type dirEntry struct {
	leaf     *leaf
	frozen   bool
	template bool
}

// templateKey composes the key a template is memoised under: the byte
// offset, then whether it is a whole leaf, then the state.
func templateKey(off int, whole, private bool) uint64 {
	key := uint64(off) << 2
	if whole {
		key |= 2
	}
	if private {
		key |= 1
	}
	return key
}

// fill makes the chunk the template for chunkBytes of art from byte offset
// off in the given state.
func (c *chunk) fill(art *artifact.Buf, off int, private bool) *chunk {
	b := art.Bytes()[off : off+chunkBytes]
	for j := range c {
		c[j].alias(b[j*PageSize:(j+1)*PageSize], art, off+j*PageSize)
		c[j].encrypted = private
	}
	return c
}

// templateChunk returns the template for chunkBytes of art from off in the
// given state, built once per artifact and memoised on it.
func templateChunk(art *artifact.Buf, off int, private bool) *chunk {
	return art.Template(templateKey(off, false, private), func() any {
		return new(chunk).fill(art, off, private)
	}).(*chunk)
}

// templateLeaf returns the template for leafBytes of art from off,
// memoised like a chunk's: a node of that run's eight chunk templates,
// which it makes for itself, node and chunks in one allocation.
func templateLeaf(art *artifact.Buf, off int, private bool) *leaf {
	return art.Template(templateKey(off, true, private), func() any {
		t := &struct {
			leaf
			chunks [leafChunks]chunk
		}{leaf: leaf{shared: allChunks, template: allChunks}}
		for c := range t.chunks {
			t.leaf.chunks[c] = t.chunks[c].fill(art, off+c*chunkBytes, private)
		}
		return &t.leaf
	}).(*leaf)
}

// templatable reports whether n bytes of art from off — a leaf's or a
// chunk's worth — can be a template: the artifact has a handle and artOff
// can hold every page's offset.
func templatable(art *artifact.Buf, off, n int) bool {
	return art != nil && uint64(off)+uint64(n)-PageSize <= math.MaxUint32
}

// shareTemplate points root slot i at the template for leafBytes of art
// from off. It replaces whatever the slot held, so it is only for
// operations that overwrite all 512 pages.
func (m *Memory) shareTemplate(i uint64, art *artifact.Buf, off int, private bool) {
	m.dir[i] = dirEntry{leaf: templateLeaf(art, off, private), frozen: true, template: true}
	m.recorder().Add(telemetry.GuestmemLeafShared, 1)
}

// shareChunk points the chunk that starts at page pn at the template for
// chunkBytes of art from off, in a node this guest owns. It replaces
// whatever the chunk held, so it is only for operations that overwrite all
// 64 pages.
func (m *Memory) shareChunk(pn uint64, art *artifact.Buf, off int, private bool) {
	l, c := m.ownLeaf(pn/leafPages), pn%leafPages/chunkPages
	l.chunks[c] = templateChunk(art, off, private)
	l.shared |= 1 << c
	l.template |= 1 << c
	m.recorder().Add(telemetry.GuestmemChunkShared, 1)
}

// pastTemplate returns the first page number past the template — leaf or
// chunk — that holds page pn, or pn+1 when none does.
func (m *Memory) pastTemplate(pn uint64) uint64 {
	e := m.dir[pn/leafPages]
	switch {
	case e.template:
		return (pn/leafPages + 1) * leafPages
	case e.leaf != nil && e.leaf.template&(1<<(pn%leafPages/chunkPages)) != 0:
		return (pn/chunkPages + 1) * chunkPages
	}
	return pn + 1
}

// Memory is one guest's physical address space.
type Memory struct {
	size uint64
	// dir is the root of the page directory, indexed by pn / leafPages;
	// a nil leaf is 2 MiB of untouched pages, a nil chunk 256 KiB of them.
	// check() bounds every gpa below size, so in-range indexing is safe.
	// Readers go through look(), which copies the page struct out; every
	// store goes through getPage(), which is what keeps frozen nodes and
	// shared chunks unwritten.
	dir []dirEntry
	// Nodes and chunks are carved from slabs, not allocated singly. A
	// pointer and a count each, the counts in asid's padding: a slice
	// header more would move Memory up a size class, which every forked
	// boot would pay for and never use.
	spareLeaves *[nodeSlab]leaf
	spareChunks *[chunkSlab]chunk

	key   []byte       // 16-byte AES key; set by LAUNCH_START via SetKey
	block cipher.Block // AES block cached at SetKey; one per guest, not per page
	asid  uint32
	// usedLeaves and usedChunks are how many of the current slabs are carved.
	usedLeaves, usedChunks uint8
	// donor marks a guest a fork source was exported from: Release leaves
	// it alone.
	donor bool

	rmp *rmp.Table // nil unless SNP

	// free is the host's free lists this guest draws from and is released
	// to; nil for a guest made by New. A nil dir marks a released guest.
	free *FreeLists

	// rec receives host-side cache counters; nil routes to the
	// process-global telemetry.DefaultHostRecorder.
	rec *telemetry.HostRecorder

	// bookkeeping for the memory-footprint experiment (§6.3)
	sevMetadataBytes int
}

// New returns a zeroed address space of the given size (page aligned up),
// with no host: what it owns goes to the collector when it is released. A
// host's guests come from its FreeLists.New.
func New(size uint64) *Memory { return newMemory(size, nil, nil) }

// Size returns the guest memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

func (m *Memory) recorder() *telemetry.HostRecorder {
	if m.rec != nil {
		return m.rec
	}
	return telemetry.DefaultHostRecorder
}

// HostRecorder returns the recorder this guest's counters route to —
// the owning host's when one was installed, the process default
// otherwise, nil once the guest is released. The launch's region loop
// stamps its stage timing on the same recorder so per-host snapshots
// stay self-contained.
func (m *Memory) HostRecorder() *telemetry.HostRecorder {
	if m.dir == nil {
		return nil
	}
	return m.recorder()
}

// SetKey installs the guest memory-encryption key and the ASID that
// tweaks it in the memory controller (done by LAUNCH_START; shared-key
// launches install the donor's pair).
func (m *Memory) SetKey(key []byte, asid uint32) {
	if m.dir == nil {
		return
	}
	if len(key) != 16 {
		panic("guestmem: key must be 16 bytes")
	}
	m.key = append([]byte(nil), key...)
	block, err := aes.NewCipher(m.key)
	if err != nil {
		panic("guestmem: " + err.Error())
	}
	m.block = block
	m.asid = asid
	m.sevMetadataBytes += len(key) + 48 // key + per-guest SEV context
}

// ShareKey installs donor's encryption key and ASID, as SetKey would
// (psp.LaunchStartFork's shared-key launch). The guest keeps its own copy
// of the key, which Release scrubs, and shares the donor's expanded AES
// block, which is read-only, instead of expanding the key again.
func (m *Memory) ShareKey(donor *Memory) {
	if m.dir == nil {
		return
	}
	if len(donor.key) != 16 {
		panic("guestmem: donor has no key")
	}
	m.key = append([]byte(nil), donor.key...)
	m.block = donor.block
	m.asid = donor.asid
	m.sevMetadataBytes += len(m.key) + 48 // key + per-guest SEV context
}

// AttachRMP enables SNP semantics for this guest with the given ASID.
func (m *Memory) AttachRMP(t *rmp.Table, asid uint32) {
	if m.dir == nil {
		return
	}
	m.rmp = t
	m.asid = asid
	m.sevMetadataBytes += 64 // ASID bookkeeping, GHCB registration
}

// RMP returns the attached table (nil if not SNP) and the guest's ASID.
func (m *Memory) RMP() (*rmp.Table, uint32) { return m.rmp, m.asid }

// SEVMetadataBytes reports the extra per-guest bookkeeping SEV added —
// the quantity §6.3 measures (~16 KiB per guest, dominated by the
// pinned-page accounting recorded via NotePinned).
func (m *Memory) SEVMetadataBytes() int { return m.sevMetadataBytes }

// NotePinned records host-side pinning metadata for n bytes of guest
// memory (KVM pins encrypted guest pages during boot, paper §6.2).
func (m *Memory) NotePinned(n int) {
	if m.dir == nil {
		return
	}
	// Two bits of accounting per pinned 4 KiB page (refcount + pin flags)
	// -> ~16 KiB for a 256 MiB guest, the paper's §6.3 figure.
	m.sevMetadataBytes += 32 + n/(PageSize*4)
}

func (m *Memory) check(gpa uint64, n int) error {
	if m.dir == nil {
		return ErrReleased
	}
	if n < 0 || gpa+uint64(n) > m.size || gpa+uint64(n) < gpa {
		return fmt.Errorf("%w: [%#x,+%d) of %#x", ErrOutOfRange, gpa, n, m.size)
	}
	return nil
}

// rmpSpan converts a [gpa, gpa+n) byte range into the page-aligned base
// and byte length covering exactly the pages the old per-page RMP walks
// iterated (including the page containing an unaligned gpa even when
// n == 0), so one range call replaces the whole loop.
func rmpSpan(gpa uint64, n int) (uint64, int) {
	base := gpa &^ (PageSize - 1)
	return base, int(gpa + uint64(n) - base)
}

// look returns a copy of page pn's state for reading. A copy, not a
// pointer: it cannot be stored through, and it stays valid when a later
// getPage replaces the node or chunk it came from.
func (m *Memory) look(pn uint64) page {
	l := m.dir[pn/leafPages].leaf
	if l == nil {
		return page{}
	}
	c := l.chunks[pn%leafPages/chunkPages]
	if c == nil {
		return page{}
	}
	return c[pn%chunkPages]
}

// ownLeaf returns root slot i's node as one this guest may store to:
// allocated on first touch, copied out of a frozen node (a fork source's
// or a template) on the first store to it. The copy is of the node alone:
// its chunks stay the sharer's, and are marked so.
func (m *Memory) ownLeaf(i uint64) *leaf {
	e := &m.dir[i]
	if e.leaf != nil && !e.frozen {
		return e.leaf
	}
	var src *leaf
	if e.frozen {
		src = e.leaf
	}
	l := m.newLeaf(src)
	if src != nil {
		l.shared = allChunks
	}
	*e = dirEntry{leaf: l}
	m.recorder().Add(telemetry.GuestmemLeafOwned, 1)
	return l
}

// ownChunk returns chunk c of l, a node this guest owns, as one it may
// store to: allocated on first touch, copied out of a shared chunk on the
// first store to it.
func (m *Memory) ownChunk(l *leaf, c uint64) *chunk {
	old, bit := l.chunks[c], uint8(1)<<c
	if old != nil && l.shared&bit == 0 {
		return old
	}
	ch := m.newChunk(old)
	l.chunks[c] = ch
	l.shared &^= bit
	l.template &^= bit
	m.recorder().Add(telemetry.GuestmemChunkOwned, 1)
	return ch
}

// getPage returns page pn for writing.
func (m *Memory) getPage(pn uint64) *page {
	return &m.ownChunk(m.ownLeaf(pn/leafPages), pn%leafPages/chunkPages)[pn%chunkPages]
}

// eachResident calls fn for every page of the chunk with any backing, in
// order, with its index in the chunk.
func (c *chunk) eachResident(fn func(j int, p page)) {
	for j, p := range c {
		if p.data != nil || p.encrypted {
			fn(j, p)
		}
	}
}

// eachResident calls fn for every page with any backing, in page-number
// order.
func (m *Memory) eachResident(fn func(pn uint64, p page)) {
	for i, e := range m.dir {
		if e.leaf == nil {
			continue
		}
		for c, ch := range e.leaf.chunks {
			if ch != nil {
				base := uint64(i)*leafPages + uint64(c)*chunkPages
				ch.eachResident(func(j int, p page) { fn(base+uint64(j), p) })
			}
		}
	}
}

// inState reports whether every page [gpa, gpa+n) touches is in the given
// privacy state.
func (m *Memory) inState(gpa uint64, n int, private bool) bool {
	for pn, end := gpa/PageSize, (gpa+uint64(n)+PageSize-1)/PageSize; pn < end; pn = m.pastTemplate(pn) { // template invariant: one state in each
		if m.look(pn).encrypted != private {
			return false
		}
	}
	return true
}

// alias points the page at one page of immutable bytes, copy-on-write.
// art/off, when art is non-nil, say where b sits inside an interned
// artifact. Provenance is only ever a shortcut to a memoized digest, so
// an offset artOff cannot hold drops it and the page is hashed for real.
func (p *page) alias(b []byte, art *artifact.Buf, off int) {
	p.data = (*[PageSize]byte)(b)
	p.cow = true
	if uint64(off) > math.MaxUint32 {
		art, off = nil, 0
	}
	p.art, p.artOff = art, uint32(off)
}

// mutable returns page p's byte slice ready for writing, materializing
// zero pages and breaking copy-on-write aliases into a buffer of this
// guest's own. Breaking an alias also drops artifact provenance: once a
// page can diverge from its canonical source, memoized digests must no
// longer apply to it.
func (m *Memory) mutable(p *page) []byte {
	if p.data == nil || p.cow {
		p.data = m.newPage(p.data)
	}
	p.cow = false
	p.art, p.artOff = nil, 0
	return p.data[:]
}

// zeroPage is returned when reading unbacked pages.
var zeroPage [PageSize]byte

// zeroChainStep is the spacing of zeroStates in the all-zero stream, and
// zeroStateLen the length of a SHA-256 digest's MarshalBinary form.
const (
	zeroChainStep = 1 << 20
	zeroStateLen  = 108
)

// zeroSum returns SHA-256 of n zero bytes and how many of them it fed to
// SHA-256. It resumes from zeroStates' entry for the longest prefix of
// whole steps the table covers and hashes only the rest.
func zeroSum(n int) (sum [32]byte, hashed int) {
	h := sha256.New()
	steps := min(n/zeroChainStep, len(zeroStates))
	if steps > 0 {
		if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(zeroState(steps)); err != nil {
			panic(err) // TestZeroStatesMatchSHA256 holds zeroState to crypto/sha256's form
		}
	}
	hashed = n - steps*zeroChainStep
	for left := hashed; left > 0; left -= PageSize {
		h.Write(zeroPage[:min(PageSize, left)])
	}
	h.Sum(sum[:0])
	return sum, hashed
}

// zeroState returns the MarshalBinary form of a SHA-256 digest that has
// taken steps*zeroChainStep zero bytes: the magic, zeroStates[steps-1], an
// empty block buffer and the length.
func zeroState(steps int) []byte {
	b := make([]byte, 0, zeroStateLen)
	b = append(b, "sha\x03"...)
	b = append(b, zeroStates[steps-1][:]...)
	b = append(b, zeroPage[:sha256.BlockSize]...)
	return binary.BigEndian.AppendUint64(b, uint64(steps*zeroChainStep))
}

func (p page) readable() []byte {
	if p.data == nil {
		return zeroPage[:]
	}
	return p.data[:]
}

// --- Host-side accesses (VMM / hypervisor) ---

// HostWrite writes plain text into guest memory as the hypervisor. Under
// SNP it is blocked on pages assigned to a guest. A host write to a
// private page destroys its encrypted content (the page becomes shared
// plain text — which the guest will detect, since SNP blocks this and
// plain SEV guests would read garbage; we model the SNP machine).
func (m *Memory) HostWrite(gpa uint64, data []byte) error {
	if err := m.check(gpa, len(data)); err != nil {
		return err
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, len(data))
		if err := m.rmp.CheckHostWriteRange(base, span); err != nil {
			return err
		}
	}
	m.write(gpa, data, false)
	return nil
}

// HostWriteAliased is HostWrite for page-aligned bulk loads: full pages
// alias the source slice copy-on-write instead of copying. The caller must
// not mutate data afterwards. Used by the VMM to place kernels/initrds.
func (m *Memory) HostWriteAliased(gpa uint64, data []byte) error {
	if err := m.check(gpa, len(data)); err != nil {
		return err
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, len(data))
		if err := m.rmp.CheckHostWriteRange(base, span); err != nil {
			return err
		}
	}
	m.writeAliased(gpa, data, false, artifact.Lookup(data), 0)
	return nil
}

// HostRead returns n bytes as seen from the host: plain text for shared
// pages, ciphertext for private pages.
func (m *Memory) HostRead(gpa uint64, n int) ([]byte, error) {
	if err := m.check(gpa, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := m.readInto(out, gpa, false); err != nil {
		return nil, err
	}
	return out, nil
}

// HostReadInto is HostRead into the caller's buffer, len(dst) bytes from
// gpa. dst is never handed to the cipher, so a buffer on the caller's
// stack stays there: the GHCB decode reads its page this way.
func (m *Memory) HostReadInto(gpa uint64, dst []byte) error {
	if err := m.check(gpa, len(dst)); err != nil {
		return err
	}
	// Span by span (readSpan), so dst does not escape.
	for done := 0; done < len(dst); {
		n, err := m.readSpan(dst[done:], gpa+uint64(done), false)
		if err != nil {
			return err
		}
		done += n
	}
	return nil
}

// readInto fills out with the bytes from gpa as a mapping with the given
// C-bit sees them — the host's is one without. A page whose state does not
// match the mapping goes through the AES transform in the "wrong"
// direction and the reader sees ciphertext or garbage: a whole page
// straight into out, part of one by way of readSpan's scratch page.
func (m *Memory) readInto(out []byte, gpa uint64, cbit bool) error {
	for done := 0; done < len(out); {
		at := gpa + uint64(done)
		if pn := at / PageSize; at%PageSize == 0 && len(out)-done >= PageSize && m.look(pn).encrypted != cbit {
			if err := m.cipherPageInto(out[done:done+PageSize], pn, m.look(pn).readable()); err != nil {
				return err
			}
			done += PageSize
			continue
		}
		n, err := m.readSpan(out[done:], at, cbit)
		if err != nil {
			return err
		}
		done += n
	}
	return nil
}

// readSpan copies into dst what a mapping with the given C-bit sees from
// gpa to the end of its page, or as much of that as dst holds, and returns
// how much that was. A page in the other state is transformed in a pooled
// scratch page, so dst does not escape.
func (m *Memory) readSpan(dst []byte, gpa uint64, cbit bool) (int, error) {
	pn, off := gpa/PageSize, gpa%PageSize
	p := m.look(pn)
	if p.encrypted == cbit {
		return copy(dst, p.readable()[off:]), nil
	}
	scratch := pagePool.Get().(*[]byte)
	defer pagePool.Put(scratch)
	if err := m.cipherPageInto(*scratch, pn, p.readable()); err != nil {
		return 0, err
	}
	return copy(dst, (*scratch)[off:]), nil
}

// --- Guest-side accesses ---

// GuestWrite writes from the guest. cbit selects the encrypted mapping:
// with the C-bit set the page becomes (or stays) private; without it the
// page is shared plain text. Under SNP, private writes require a
// validated RMP entry, otherwise #VC is returned.
func (m *Memory) GuestWrite(gpa uint64, data []byte, cbit bool) error {
	if err := m.check(gpa, len(data)); err != nil {
		return err
	}
	if cbit && m.key == nil {
		return ErrNoKey
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, len(data))
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return err
		}
	}
	m.write(gpa, data, cbit)
	return nil
}

// GuestRead reads from the guest through a mapping with or without the
// C-bit. Reading a private page *without* the C-bit yields ciphertext;
// reading a shared page *with* the C-bit yields garbage (modeled as the
// decryption of the plain text — deterministic and definitely not the
// original bytes). Under SNP, C-bit reads require validated pages.
func (m *Memory) GuestRead(gpa uint64, n int, cbit bool) ([]byte, error) {
	if err := m.check(gpa, n); err != nil {
		return nil, err
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return nil, err
		}
	}
	out := make([]byte, n)
	if err := m.readInto(out, gpa, cbit); err != nil {
		return nil, err
	}
	return out, nil
}

// GuestCopy copies n bytes from src to dst inside the guest, reading with
// srcCbit and writing with dstCbit — the boot verifier's shared->private
// component copy. Page-aligned spans alias copy-on-write, and so does a
// span at any alignment whose source is one run of an artifact.
func (m *Memory) GuestCopy(dst, src uint64, n int, dstCbit, srcCbit bool) error {
	if err := m.check(src, n); err != nil {
		return err
	}
	if err := m.check(dst, n); err != nil {
		return err
	}
	if src < dst+uint64(n) && dst < src+uint64(n) && n > 0 {
		return fmt.Errorf("guestmem: overlapping copy [%#x,+%d) -> [%#x,+%d)", src, n, dst, n)
	}
	if dstCbit && m.key == nil {
		return ErrNoKey
	}
	if m.rmp != nil {
		if srcCbit {
			base, span := rmpSpan(src, n)
			if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
				return err
			}
		}
		if dstCbit {
			base, span := rmpSpan(dst, n)
			if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
				return err
			}
		}
	}
	// Fast path: page-aligned both sides and every source page's state
	// matches the mapping (so the copy moves plain text) — alias full
	// pages copy-on-write, and the tail too when that lands the same page.
	if dst%PageSize == 0 && src%PageSize == 0 {
		fullPages := uint64(n) / PageSize
		if m.inState(src, int(fullPages*PageSize), srcCbit) {
			for i := uint64(0); i < fullPages; i++ {
				sn, dn := src/PageSize+i, dst/PageSize+i
				if sn%chunkPages == 0 && dn%chunkPages == 0 && fullPages-i >= chunkPages && m.pastTemplate(sn) > sn+1 {
					// A whole template onto a whole leaf or chunk: the same
					// artifact run's template in the destination state.
					t := m.look(sn)
					if sn%leafPages == 0 && dn%leafPages == 0 && fullPages-i >= leafPages && m.dir[sn/leafPages].template {
						m.shareTemplate(dn/leafPages, t.art, int(t.artOff), dstCbit)
						i += leafPages - 1
					} else {
						m.shareChunk(dn, t.art, int(t.artOff), dstCbit)
						i += chunkPages - 1
					}
					continue
				}
				m.sharePage(dn, sn, dstCbit)
			}
			tail := n - int(fullPages*PageSize)
			if tail == 0 {
				return nil
			}
			// The tail's page, written into a never-backed destination,
			// is the source page whole when that page moves as plain text
			// and holds zeros past the tail: share it like a full one.
			sn, dn := src/PageSize+fullPages, dst/PageSize+fullPages
			if sp := m.look(sn); sp.data != nil && sp.encrypted == srcCbit && m.look(dn).data == nil && allZero(sp.data[tail:]) {
				m.sharePage(dn, sn, dstCbit)
				return nil
			}
			data, err := m.GuestRead(src+fullPages*PageSize, tail, srcCbit)
			if err != nil {
				return err
			}
			m.write(dst+fullPages*PageSize, data, dstCbit)
			return nil
		}
	}
	// Shifted alias: src and dst are not both page-aligned, but the source
	// moves as plain text and is one run of an artifact, so the bytes
	// arriving at dst are the artifact's whatever page offset they land on.
	// The destination aliases them there — whole leaves and chunks as
	// templates, full pages with byte-granular provenance, only the partial
	// head and tail pages copied — and the source is left as it was.
	if m.inState(src, n, srcCbit) {
		if art, base := m.rangeArtifact(src, n); art != nil {
			m.writeAliased(dst, art.Bytes()[base:base+n], dstCbit, art, base)
			return nil
		}
	}
	// General path: read then write.
	data, err := m.GuestRead(src, n, srcCbit)
	if err != nil {
		return err
	}
	m.write(dst, data, dstCbit)
	return nil
}

// --- internals ---

// sharePage points page dn at page sn's bytes and provenance, copy-on-write,
// in the given state. sp is a copy, so the getPage calls may replace the
// node or chunk it came from (the two pages can share one). The source
// becomes copy-on-write too; a page that already is — every backed page of
// a shared chunk — needs no store, and getPage never hands out a shared
// chunk for one.
func (m *Memory) sharePage(dn, sn uint64, encrypted bool) {
	sp := m.look(sn)
	if sp.data != nil && !sp.cow {
		m.getPage(sn).cow = true
		sp.cow = true
	}
	sp.encrypted = encrypted
	*m.getPage(dn) = sp
}

func (m *Memory) write(gpa uint64, data []byte, encrypted bool) {
	for done := 0; done < len(data); {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > len(data)-done {
			chunk = len(data) - done
		}
		p := m.getPage(pn)
		copy(m.mutable(p)[off:], data[done:done+chunk])
		p.encrypted = encrypted
		done += chunk
	}
}

// writeAliased is write with zero-copy full-page aliasing. When the
// source slice is (or lies inside) an interned artifact, art/artBase
// record where data[0] sits inside it, and aliased pages carry that
// provenance so later range digests can hit the artifact's memo table.
func (m *Memory) writeAliased(gpa uint64, data []byte, encrypted bool, art *artifact.Buf, artBase int) {
	done := 0
	for done < len(data) {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		if rest := len(data) - done; off == 0 && pn%chunkPages == 0 && rest >= chunkBytes && templatable(art, artBase+done, chunkBytes) {
			// A whole leaf or chunk of one artifact: share its template.
			if pn%leafPages == 0 && rest >= leafBytes && templatable(art, artBase+done, leafBytes) {
				m.shareTemplate(pn/leafPages, art, artBase+done, encrypted)
				done += leafBytes
			} else {
				m.shareChunk(pn, art, artBase+done, encrypted)
				done += chunkBytes
			}
			continue
		}
		chunk := PageSize - off
		if chunk > len(data)-done {
			chunk = len(data) - done
		}
		p := m.getPage(pn)
		if off == 0 && chunk == PageSize {
			p.alias(data[done:done+PageSize], art, artBase+done)
		} else if pa := artBase + done - off; p.data == nil && art != nil &&
			pa >= 0 && pa+PageSize <= art.Len() &&
			allZero(art.Bytes()[pa:pa+off]) &&
			allZero(art.Bytes()[pa+off+chunk:pa+PageSize]) {
			// Sub-page write into a fresh (all-zero) page, with the artifact
			// holding zeros around the written bytes at the same intra-page
			// offsets (staging blobs place regions GPA-congruent and pad to
			// page boundaries for exactly this): the full page content
			// equals the artifact's page, so alias it with provenance
			// instead of copying.
			p.alias(art.Bytes()[pa:pa+PageSize], art, pa)
		} else if p.data == nil && art != nil {
			// Any other sub-page write of an artifact's bytes into a
			// never-backed page makes a page of those bytes and zeros, the
			// same one every time: alias the one the artifact keeps. Its
			// content is not a window of the artifact, so no provenance.
			p.data, p.cow = edgePage(art, artBase+done, off, chunk), true
		} else {
			copy(m.mutable(p)[off:], data[done:done+chunk])
		}
		p.encrypted = encrypted
		done += chunk
	}
}

// edgePages is an artifact's padded edge pages, memoised on it through
// Derived, not Template: they hold the artifact's bytes, so Corrupt must
// drop them with every other fact derived from those bytes, and the next
// write makes its page from the tampered ones.
type edgePages struct {
	mu    sync.Mutex
	pages map[uint64]*[PageSize]byte // by offset, byte and length, packed
}

// edgePage returns the page that holds n bytes of art from offset a at
// byte off, and zeros around them, built once per artifact.
func edgePage(art *artifact.Buf, a, off, n int) *[PageSize]byte {
	v, _ := art.Derived("guestmem.edge-pages", func() (any, error) {
		return &edgePages{pages: make(map[uint64]*[PageSize]byte)}, nil
	})
	t := v.(*edgePages)
	key := uint64(a)<<25 | uint64(off)<<13 | uint64(n) // off < 1<<12, n <= 1<<12
	t.mu.Lock()
	defer t.mu.Unlock()
	pg := t.pages[key]
	if pg == nil {
		pg = new([PageSize]byte)
		copy(pg[off:], art.Bytes()[a:a+n])
		t.pages[key] = pg
	}
	return pg
}

// allZero reports whether b, at most a page, is all zero bytes: a word-wise
// compare against the zero page.
func allZero(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

// cipherPageInto produces the AES-CTR transform of a page's plain text
// under the guest key, tweaked by the page's physical address, into a
// caller-provided buffer, so hot paths can run the transform through a
// sync.Pool page instead of allocating per page. The AES block is the one
// cached by SetKey.
func (m *Memory) cipherPageInto(ct []byte, pn uint64, pt []byte) error {
	if m.key == nil {
		return ErrNoKey
	}
	var iv [16]byte
	binary.LittleEndian.PutUint32(iv[0:], m.asid)
	binary.LittleEndian.PutUint64(iv[8:], pn) // physical-address tweak
	cipher.NewCTR(m.block, iv[:]).XORKeyStream(ct[:PageSize], pt)
	return nil
}

// pagePool recycles page-sized scratch buffers for transforms whose
// output does not escape (streaming hashes over mismatched mappings).
var pagePool = sync.Pool{New: func() any {
	b := make([]byte, PageSize)
	return &b
}}

// Stats summarizes backing-store usage.
type Stats struct {
	ResidentPages int // pages with any backing
	AliasedPages  int // pages sharing bytes copy-on-write
	PrivatePages  int // pages in the encrypted state
}

// Stats returns current backing-store statistics.
func (m *Memory) Stats() Stats {
	var s Stats
	m.eachResident(func(_ uint64, p page) { // cow implies data, so no aliased page is skipped
		s.ResidentPages++
		if p.cow {
			s.AliasedPages++
		}
		if p.encrypted {
			s.PrivatePages++
		}
	})
	return s
}

// HostWriteArtifact is HostWriteAliased for a subrange of an interned
// artifact: pages alias art.Bytes()[off:off+n] copy-on-write and carry
// provenance, so later HashRange/RangeView calls over them resolve to
// the artifact's memoized digests instead of re-reading the bytes.
func (m *Memory) HostWriteArtifact(gpa uint64, art *artifact.Buf, off, n int) error {
	if err := m.check(gpa, n); err != nil {
		return err
	}
	data := art.Bytes()[off : off+n]
	if m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckHostWriteRange(base, span); err != nil {
			return err
		}
	}
	m.writeAliased(gpa, data, false, art, off)
	return nil
}

// GuestWriteArtifact is GuestWrite for page-aligned bulk loads from a
// subrange of an immutable artifact: full pages alias
// art.Bytes()[off:off+n] copy-on-write and carry provenance. The guest
// Linux model uses it to place ELF segments from the canonical
// decompressed vmlinux, so concurrent guests booting the same kernel
// share backing store (their *ciphertext* still differs per guest — it
// is derived from the key and address on host reads).
func (m *Memory) GuestWriteArtifact(gpa uint64, art *artifact.Buf, off, n int, cbit bool) error {
	if err := m.check(gpa, n); err != nil {
		return err
	}
	data := art.Bytes()[off : off+n]
	if cbit && m.key == nil {
		return ErrNoKey
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return err
		}
	}
	m.writeAliased(gpa, data, cbit, art, off)
	return nil
}

// IsPrivate reports whether the page containing gpa is encrypted.
func (m *Memory) IsPrivate(gpa uint64) bool {
	return gpa < m.size && m.look(gpa/PageSize).encrypted
}

// HostRestoreCiphertext replays captured ciphertext into a private page —
// no boot path does (warm boots fork), but the §7 evidence does: the
// cross-key test replays a capture through it. The stored plain text becomes whatever the
// *target* guest's key decrypts the ciphertext to: restoring under the
// original key at the original address reproduces the original bytes;
// any other key (or address) yields garbage, which is the paper's §7.1
// obstacle to SEV warm start. Under SNP the page comes back assigned and
// validated (the guest's post-restore pvalidate pass is charged by the
// caller).
func (m *Memory) HostRestoreCiphertext(gpa uint64, ct []byte) error {
	if err := m.check(gpa, len(ct)); err != nil {
		return err
	}
	if gpa%PageSize != 0 || len(ct) != PageSize {
		return fmt.Errorf("guestmem: ciphertext restore must be page-granular")
	}
	if m.key == nil {
		return ErrNoKey
	}
	pn := gpa / PageSize
	pt := m.newPage(nil)
	m.cipherPageInto(pt[:], pn, ct) // CTR is its own inverse; the key was checked above
	p := m.getPage(pn)
	p.data = pt
	p.cow = false
	p.art, p.artOff = nil, 0
	p.encrypted = true
	if m.rmp != nil {
		m.rmp.AssignValidated(gpa, m.asid)
	}
	return nil
}

// ShareRange converts [gpa, gpa+n) to shared state — the guest's
// page-state-change request for DMA-visible memory (virtio rings, swiotlb
// bounce buffers). Under SNP the pages return to hypervisor ownership so
// the device can write them; their contents become host-visible plain
// text, which is why drivers only bounce non-secret data through them.
func (m *Memory) ShareRange(gpa uint64, n int) error {
	if err := m.check(gpa, n); err != nil {
		return err
	}
	for off := gpa &^ (PageSize - 1); off < gpa+uint64(n); off += PageSize {
		p := m.getPage(off / PageSize)
		p.encrypted = false
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		m.rmp.ReclaimRange(base, span)
	}
	return nil
}

// --- Range digests, zero-copy views, and page export (host-time layer) ---
//
// These APIs exist so the fleet hot path stops re-materializing and
// re-hashing bytes that are content-identical across boots. They change
// no observable semantics: every digest equals SHA-256 of the bytes the
// corresponding GuestRead (or the tests' LaunchUpdate) would have
// returned, and every fast path is guarded by provenance or byte
// comparison.

// rangeArtifact resolves [gpa, gpa+n) to a single interned artifact
// range when possible: at least one page in the range carries artifact
// provenance, every page with provenance agrees on (artifact, offset),
// and every page without provenance (partial-page tails copied by
// writeAliased, unbacked zero pages never written) is byte-compared
// against the artifact. Returns (nil, 0) when no sound mapping exists.
func (m *Memory) rangeArtifact(gpa uint64, n int) (*artifact.Buf, int) {
	if n <= 0 {
		return nil, 0
	}
	first := gpa / PageSize
	last := (gpa + uint64(n) - 1) / PageSize
	var art *artifact.Buf
	base := 0
	for pn := first; pn <= last; pn = m.pastTemplate(pn) { // template invariant: its other pages say the same
		p := m.look(pn)
		if p.art == nil {
			continue
		}
		cand := int(p.artOff) - int(pn-first)*PageSize + int(gpa%PageSize)
		if art == nil {
			art, base = p.art, cand
		} else if p.art != art || cand != base {
			return nil, 0
		}
	}
	if art == nil || base < 0 || base+n > art.Len() {
		return nil, 0
	}
	// Verify the pages without provenance really hold the artifact's
	// bytes. This covers copied partial-page tails (a few KiB memcmp,
	// cheap next to the MiB-scale hash it saves) and rejects anything
	// that diverged.
	src := art.Bytes()[base : base+n]
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		if next := m.pastTemplate(pn); next > pn+1 {
			// Template invariant: every page of it has provenance.
			done = int(next*PageSize - gpa)
			continue
		}
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		p := m.look(pn)
		if p.art == nil {
			if !bytes.Equal(p.readable()[off:off+chunk], src[done:done+chunk]) {
				return nil, 0
			}
		}
		done += chunk
	}
	return art, base
}

// unbacked reports whether no page of [gpa, gpa+n) has backing bytes, so
// the range reads as n zero bytes.
func (m *Memory) unbacked(gpa uint64, n int) bool {
	for pn := gpa / PageSize; pn*PageSize < gpa+uint64(n); pn++ {
		if m.look(pn).data != nil {
			return false
		}
	}
	return true
}

// PlainRangeDigest returns SHA-256 of the current plain text of
// [gpa, gpa+n) — exactly sha256.Sum256 of what the tests' LaunchUpdate
// would have returned — using the artifact memo table when the range
// aliases one interned buffer, the zeroStates table when no page of it has
// backing, and a zero-copy streaming hash otherwise. The streamed-bytes
// counter adds what is fed to SHA-256, so a resumed zero prefix adds nothing.
func (m *Memory) PlainRangeDigest(gpa uint64, n int) ([32]byte, error) {
	var sum [32]byte
	if err := m.check(gpa, n); err != nil {
		return sum, err
	}
	if art, base := m.rangeArtifact(gpa, n); art != nil {
		m.recorder().Add(telemetry.GuestmemDigestMemo, 1)
		return art.RangeDigest(base, n), nil
	}
	m.recorder().Add(telemetry.GuestmemDigestStreamed, 1)
	if m.unbacked(gpa, n) {
		sum, hashed := zeroSum(n)
		m.recorder().Add(telemetry.GuestmemDigestStreamedBytes, int64(hashed))
		return sum, nil
	}
	m.recorder().Add(telemetry.GuestmemDigestStreamedBytes, int64(n))
	h := sha256.New()
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		h.Write(m.look(pn).readable()[off : off+chunk])
		done += chunk
	}
	h.Sum(sum[:0])
	return sum, nil
}

// HashRange returns SHA-256 of the bytes GuestRead(gpa, n, cbit) would
// return, without materializing the copy. When every page's state
// matches the mapping (the verifier hashing components it just copied
// private), the plain-text fast path applies — including the memoized
// artifact digests. Mismatched pages are transformed through a pooled
// scratch page and streamed.
func (m *Memory) HashRange(gpa uint64, n int, cbit bool) ([32]byte, error) {
	var sum [32]byte
	if err := m.check(gpa, n); err != nil {
		return sum, err
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return sum, err
		}
	}
	if m.inState(gpa, n, cbit) {
		return m.PlainRangeDigest(gpa, n)
	}
	m.recorder().Add(telemetry.GuestmemDigestTransformed, 1)
	scratch := pagePool.Get().(*[]byte)
	defer pagePool.Put(scratch)
	h := sha256.New()
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		p := m.look(pn)
		src := p.readable()
		if p.encrypted != cbit {
			if err := m.cipherPageInto(*scratch, pn, src); err != nil {
				return sum, err
			}
			src = *scratch
		}
		h.Write(src[off : off+chunk])
		done += chunk
	}
	h.Sum(sum[:0])
	return sum, nil
}

// RangeView returns a zero-copy read-only view of the bytes
// GuestRead(gpa, n, cbit) would return, when the range aliases one
// interned artifact contiguously and every page's state matches the
// mapping. ok is false (with no error) when no sound view exists and
// the caller must fall back to GuestRead. The view is valid until the
// next write to the range.
func (m *Memory) RangeView(gpa uint64, n int, cbit bool) (view []byte, ok bool, err error) {
	art, base, err := m.ArtifactRange(gpa, n, cbit)
	if err != nil || art == nil {
		return nil, false, err
	}
	m.recorder().Add(telemetry.GuestmemViewHit, 1)
	m.recorder().Add(telemetry.GuestmemViewBytes, int64(n))
	return art.Bytes()[base : base+n : base+n], true, nil
}

// GuestView returns the bytes GuestRead(gpa, n, cbit) would return, for a
// reader that only parses them: RangeView's zero-copy view when one is
// sound, else, for a range inside one page in the mapping's state, a view
// of that page's bytes (view true either way: the caller must not write
// through it, and it is valid until the next write to the range or the
// guest's release), GuestRead's copy otherwise. Every check GuestRead
// makes is made either way.
func (m *Memory) GuestView(gpa uint64, n int, cbit bool) (b []byte, view bool, err error) {
	if b, view, err = m.RangeView(gpa, n, cbit); err != nil || view {
		return b, view, err
	}
	if off := int(gpa % PageSize); n > 0 && off+n <= PageSize {
		if p := m.look(gpa / PageSize); p.encrypted == cbit {
			return p.readable()[off : off+n : off+n], true, nil
		}
	}
	b, err = m.GuestRead(gpa, n, cbit)
	return b, false, err
}

// ArtifactRange resolves [gpa, gpa+n) to its backing artifact and base
// offset under the same soundness conditions as RangeView (single
// interned artifact, every page's state matching cbit, RMP access
// permitted). A nil artifact with nil error means no sound mapping
// exists. Callers use the handle to combine memoized digests across
// multiple ranges of the same artifact (the vmlinux streaming path).
func (m *Memory) ArtifactRange(gpa uint64, n int, cbit bool) (*artifact.Buf, int, error) {
	if err := m.check(gpa, n); err != nil {
		return nil, 0, err
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return nil, 0, err
		}
	}
	if !m.inState(gpa, n, cbit) {
		return nil, 0, nil
	}
	art, base := m.rangeArtifact(gpa, n)
	if art == nil {
		return nil, 0, nil
	}
	return art, base, nil
}

// LaunchUpdateFlip is the state-change half of LAUNCH_UPDATE_DATA: it
// flips [gpa, gpa+n) to private (assigned+validated under SNP) without
// materializing the plain text. The measurement half is
// PlainRangeDigest; psp.GuestContext.LaunchUpdateData runs the flip and
// then the digest, in place.
func (m *Memory) LaunchUpdateFlip(gpa uint64, n int) error {
	if err := m.check(gpa, n); err != nil {
		return err
	}
	if m.key == nil {
		return ErrNoKey
	}
	for off := gpa &^ (PageSize - 1); off < gpa+uint64(n); off += PageSize {
		p := m.getPage(off / PageSize)
		p.encrypted = true
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		m.rmp.AssignValidatedRange(base, span, m.asid)
	}
	return nil
}

// PageExport is one resident page as the host sees it.
type PageExport struct {
	PN      uint64 // page number (gpa / PageSize)
	Data    []byte // PageSize bytes: plain text if shared, ciphertext if private
	Private bool
}

// ExportPages returns every resident page ordered by page number, with
// private pages encrypted exactly as HostRead would produce them. The
// per-page AES transforms run across the hostwork pool; the result is
// index-addressed and independent of worker count. Snapshot capture
// uses this instead of page-at-a-time HostRead.
func (m *Memory) ExportPages() ([]PageExport, error) {
	if m.dir == nil {
		return nil, ErrReleased
	}
	var pns []uint64
	anyPrivate := false
	m.eachResident(func(pn uint64, p page) {
		pns = append(pns, pn)
		anyPrivate = anyPrivate || p.encrypted
	})
	if anyPrivate && m.key == nil {
		return nil, ErrNoKey
	}
	out := make([]PageExport, len(pns))
	hostwork.Do(len(pns), func(i int) {
		pn := pns[i]
		p := m.look(pn)
		data := make([]byte, PageSize)
		if p.encrypted {
			m.cipherPageInto(data, pn, p.readable())
		} else {
			copy(data, p.readable())
		}
		out[i] = PageExport{PN: pn, Data: data, Private: p.encrypted}
	})
	return out, nil
}
