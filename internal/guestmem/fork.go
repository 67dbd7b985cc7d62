package guestmem

// Snapshot-fork support: a ForkSource is one guest's resident plain
// text, frozen without being copied. Almost every resident page of a
// booted guest still aliases an immutable artifact (the vmlinux, the
// bzImage, the initrd, the launch plan's staging blob), so the source
// records those pages as extents — runs of pages backed by consecutive
// bytes of one artifact — and copies only the pages without provenance
// into one small dirty blob. Capture therefore costs what the guest
// dirtied, not what it holds. The extents, in page order, are the
// source's page table too: what needs the resident page numbers and their
// privacy — the seal, the load charge — reads them as runs (PageRuns) or
// as a count (NumPages), and no per-page list is built.
//
// Where a copy restore would replay ciphertext page by page (O(image) AES
// work per warm boot), AdoptFork points the child's root entries at the
// source's frozen nodes — one store per touched 2 MiB of guest — replays
// the source's private-page runs into the child's RMP, and makes one
// O(1) root check. Forked children alias the registered artifacts with
// their original provenance, exactly as a cold-booted guest does; only
// the dirty pages alias the blob. The forked guest shares the donor's key
// and ASID (installed by psp.LaunchStartFork), so the host-visible
// ciphertext of every aliased private page is bit-identical to what a
// copy restore would have produced. A store to any page first copies its
// node into the child (ownLeaf), then its chunk (ownChunk), and then
// breaks the page's alias (mutable), so neither the frozen directory, an
// artifact nor the blob can diverge.
//
// Soundness: the fork root is SHA-256 over the digest of the extent table
// (which page holds which bytes of which artifact, and its privacy), the
// whole-buffer digest of every distinct artifact an extent names, in
// first-seen order, and the digest of the dirty blob last. Those digests
// are the ones internal/artifact memoises, and a memoised digest is sound
// for the same reason a page's provenance is: the bytes are immutable by
// contract, and the one thing that breaks the contract — artifact.Corrupt,
// the chaos engine's tamper model — drops the memo, so the next Digest
// call hashes the bytes the buffer actually holds. The root thus binds
// exactly the bytes the frozen directory points at, as the digest of a
// copy would. Verify's fast path compares each artifact's corruption
// count with the one recorded at export (atomic loads, no lock); on any
// difference it re-derives the root from the artifacts' own digests and
// refuses with ErrForkTampered unless it is the root recorded at capture.
// AdoptFork verifies before sharing a single node, so a fork can never go
// live with pages that differ from the measured parent.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/artifact"
)

// ErrForkTampered reports a fork source whose artifacts or dirty blob no
// longer match the root recorded at capture.
var ErrForkTampered = errors.New("guestmem: fork source tampered since capture")

// extent is count resident pages from page number pn whose plain text is
// arts[art].Bytes()[off : off+count*PageSize], all in one privacy state.
type extent struct {
	pn, count uint64
	art       int // index into ForkSource.arts
	off       int
	private   bool
}

// ForkSource is a guest's resident plain text frozen in place,
// fork-adoptable by any guest of the same size that shares the donor's
// encryption key and ASID.
type ForkSource struct {
	size   uint64
	npages int
	root   [32]byte
	keyID  [32]byte

	// Every resident page lies in exactly one extent, in page order, so the
	// extents are the source's page table as well (PageRuns). arts
	// holds the distinct buffers the extents name — the aliased artifacts
	// and, when any page lacked provenance, the dirty blob — in first-seen
	// order; gens is each one's corruption count when the root was taken.
	extents []extent
	arts    []*artifact.Buf
	gens    []uint32
	blob    *artifact.Buf

	// Built once at export, read-only afterwards, shared by every
	// adopter: the directory a forked guest starts from (every entry
	// frozen, every backed page copy-on-write with provenance; a node's
	// shared mask is not kept, ownLeaf marks every chunk of a copy) and
	// the maximal runs of private pages to assign+validate in the
	// adopter's RMP.
	dir         []dirEntry
	privateRuns []pageRun
}

// pageRun is count consecutive pages starting at page number pn.
type pageRun struct{ pn, count uint64 }

// ExportForkSource freezes the guest's resident pages: pages carrying
// artifact provenance are recorded as extents of their artifact, the rest
// are copied, in page-number order, into one dirty blob; the fork root is
// taken over the extent table and the digests of everything it names, and
// the frozen directory adopters will share is the donor's own page structs
// with the dirty pages re-pointed at the blob. Only what the donor owns is
// copied, a node per touched slot and the chunks it stored to; what it
// still shares is shared on as it is — a template leaf or chunk recorded as
// one run, a chunk of the directory it was itself forked from page by
// page. The blob's handle travels with the source (adopted
// pages carry it as provenance), so it stays out of the process intern
// table and is collected with the last fork container that references it.
// The donor must not be mutated afterwards (fleet keeps donors parked for
// exactly this reason). A guest holding private pages without an installed
// key is refused with ErrNoKey, as ExportPages refuses it: nothing could
// ever adopt the source. The guest is its source's donor from then on, and
// Release leaves it alone.
func (m *Memory) ExportForkSource() (*ForkSource, error) {
	if m.dir == nil {
		return nil, ErrReleased
	}
	var npages, ndirty, nnodes, nchunks int
	anyPrivate := false
	for _, e := range m.dir {
		if e.leaf == nil {
			continue
		}
		if e.template { // template invariant: 512 resident pages, all with provenance, one state
			npages += leafPages
			anyPrivate = anyPrivate || e.leaf.chunks[0][0].encrypted
			continue
		}
		before := npages
		for c, ch := range e.leaf.chunks {
			if ch == nil {
				continue
			}
			if e.leaf.template&(1<<c) != 0 {
				npages += chunkPages
				anyPrivate = anyPrivate || ch[0].encrypted
				continue
			}
			resident, dirty, private := ch.census()
			npages += resident
			ndirty += dirty
			anyPrivate = anyPrivate || private
			if resident > 0 && !e.sharesOn(c, dirty) {
				nchunks++
			}
		}
		if npages > before {
			nnodes++
		}
	}
	if anyPrivate && m.key == nil {
		return nil, ErrNoKey
	}

	blob := make([]byte, ndirty*PageSize)
	nodes, chunks := make([]leaf, nnodes), make([]chunk, nchunks) // one slab each: the frozen directory lives and dies together
	src := &ForkSource{size: m.size, npages: npages, blob: artifact.Of(blob),
		keyID: m.keyID(), dir: make([]dirEntry, len(m.dir))}
	copied := 0
	for i, e := range m.dir {
		if e.leaf == nil {
			continue
		}
		base := uint64(i) * leafPages
		if e.template {
			// Already what a frozen directory holds — every page
			// copy-on-write with provenance — so shared, not copied.
			first := e.leaf.chunks[0][0]
			src.dir[i] = e
			src.addRun(base, leafPages, first.art, int(first.artOff), first.encrypted)
			continue
		}
		for c, ch := range e.leaf.chunks {
			if ch == nil {
				continue
			}
			base, frozen := base+uint64(c)*chunkPages, ch
			if e.leaf.template&(1<<c) != 0 {
				src.addRun(base, chunkPages, ch[0].art, int(ch[0].artOff), ch[0].encrypted)
			} else if resident, dirty, _ := ch.census(); resident == 0 {
				continue
			} else if e.sharesOn(c, dirty) {
				ch.eachResident(func(j int, p page) { src.addRun(base+uint64(j), 1, p.art, int(p.artOff), p.encrypted) })
			} else {
				frozen, chunks = &chunks[0], chunks[1:]
				ch.eachResident(func(j int, p page) {
					art, off := p.art, int(p.artOff)
					if art == nil {
						art, off = src.blob, copied
						copy(blob[off:], p.readable())
						p.alias(blob[off:off+PageSize], art, off) // an all-zero private page gets data too
						copied += PageSize
					}
					p.cow = true
					frozen[j] = p
					src.addRun(base+uint64(j), 1, art, off, p.encrypted)
				})
			}
			if src.dir[i].leaf == nil {
				src.dir[i] = dirEntry{leaf: &nodes[0], frozen: true}
				nodes = nodes[1:]
			}
			src.dir[i].leaf.chunks[c] = frozen
			src.dir[i].leaf.template |= e.leaf.template & (1 << c)
		}
	}
	// Counts before digests: a Corrupt landing between the two leaves a
	// count that no longer matches, and Verify re-derives the root.
	src.gens = make([]uint32, len(src.arts))
	for i, a := range src.arts {
		src.gens[i] = a.Corruptions()
	}
	src.root = src.deriveRoot()
	m.donor = true
	m.recorder().CounterAdd("guestmem.fork.exported", 1)
	m.recorder().CounterAdd("guestmem.fork.exported_bytes", int64(len(blob)))
	return src, nil
}

// census counts the chunk's resident pages and those among them without
// provenance, and reports whether any is private.
func (c *chunk) census() (resident, dirty int, private bool) {
	c.eachResident(func(_ int, p page) {
		resident++
		if p.art == nil {
			dirty++
		}
		private = private || p.encrypted
	})
	return resident, dirty, private
}

// sharesOn reports whether a frozen directory can point at chunk c of the
// entry's node as it is: the donor shares it — so nothing will store to it
// and every backed page is copy-on-write already — and none of its pages,
// dirty of them, needs a place in the blob.
func (e dirEntry) sharesOn(c, dirty int) bool {
	return (e.frozen || e.leaf.shared&(1<<c) != 0) && dirty == 0
}

// addRun records count resident pages from page number pn, backed by
// consecutive bytes of art from off and all in one privacy state: in the
// extent table and, when private, in the private runs.
func (s *ForkSource) addRun(pn, count uint64, art *artifact.Buf, off int, private bool) {
	if n := len(s.extents); n > 0 && s.arts[s.extents[n-1].art] == art && s.extents[n-1].continuedBy(pn, off, private) {
		s.extents[n-1].count += count
	} else {
		s.extents = append(s.extents, extent{pn: pn, count: count, art: s.artIndex(art), off: off, private: private})
	}
	if !private {
		return
	}
	if n := len(s.privateRuns); n > 0 && s.privateRuns[n-1].pn+s.privateRuns[n-1].count == pn {
		s.privateRuns[n-1].count += count
	} else {
		s.privateRuns = append(s.privateRuns, pageRun{pn: pn, count: count})
	}
}

// continuedBy reports whether pages from pn, backed from off of the
// extent's artifact, extend the extent.
func (x extent) continuedBy(pn uint64, off int, private bool) bool {
	return x.pn+x.count == pn && x.off+int(x.count)*PageSize == off && x.private == private
}

// artIndex returns art's position in s.arts, appending it when new. A
// guest aliases a handful of artifacts, so the scan is short, and it runs
// once per extent, not per page.
func (s *ForkSource) artIndex(art *artifact.Buf) int {
	for i, a := range s.arts {
		if a == art {
			return i
		}
	}
	s.arts = append(s.arts, art)
	return len(s.arts) - 1
}

// deriveRoot computes the fork root from the extent table and the current
// digests of the artifacts it names: memo hits while they are intact, an
// honest re-hash of any that artifact.Corrupt has touched.
func (s *ForkSource) deriveRoot() [32]byte {
	table := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(s.extents)*29), uint64(len(s.extents)))
	for _, x := range s.extents {
		table = binary.LittleEndian.AppendUint64(table, x.pn)
		table = binary.LittleEndian.AppendUint64(table, x.count)
		table = binary.LittleEndian.AppendUint32(table, uint32(x.art))
		table = binary.LittleEndian.AppendUint64(table, uint64(x.off))
		private := byte(0)
		if x.private {
			private = 1
		}
		table = append(table, private)
	}
	sum := sha256.Sum256(table)
	b := append(make([]byte, 0, (1+len(s.arts))*sha256.Size), sum[:]...)
	for _, a := range s.arts {
		if a != s.blob {
			sum = a.Digest()
			b = append(b, sum[:]...)
		}
	}
	if s.blob != nil {
		sum = s.blob.Digest()
		b = append(b, sum[:]...)
	}
	return sha256.Sum256(b)
}

// NumPages returns how many resident pages the source holds.
func (s *ForkSource) NumPages() int { return s.npages }

// PageRuns calls fn for each run of the source's page table, in page
// order: count resident pages from page number pn, all private or all
// shared at capture. The runs are the extents, which tile the resident
// pages, so no page list is built; two adjacent runs may continue each
// other.
func (s *ForkSource) PageRuns(fn func(pn, count uint64, private bool)) {
	for _, x := range s.extents {
		fn(x.pn, x.count, x.private)
	}
}

// Size returns the donor guest's memory size.
func (s *ForkSource) Size() uint64 { return s.size }

// Root returns the fork root recorded at capture.
func (s *ForkSource) Root() [32]byte { return s.root }

// KeyID identifies the key and ASID the source's private pages were
// captured under: a domain-separated SHA-256 fingerprint taken once at
// export, all zero for a keyless guest. Two captures of the same plain
// text under different launches differ here and nowhere else, which is
// what keeps their published seals apart (snapshot.Fork.Seal). The key
// itself never leaves this package and the PSP, and a 128-bit key is not
// recoverable from the fingerprint.
func (s *ForkSource) KeyID() [32]byte { return s.keyID }

// keyID fingerprints the installed key and ASID for ForkSource.KeyID.
func (m *Memory) keyID() [32]byte {
	if m.key == nil {
		return [32]byte{}
	}
	b := append([]byte("severifast/guestmem/fork-key-id/v1\x00"), m.key...)
	return sha256.Sum256(binary.LittleEndian.AppendUint32(b, m.asid))
}

// Blob exposes the dirty blob: the copied pages, nil when every resident
// page carried provenance. The chaos engine corrupts it to prove forks of
// a tampered parent are refused.
func (s *ForkSource) Blob() *artifact.Buf { return s.blob }

// Verify reports whether everything the source's pages alias is still
// what the fork root was taken over. While no artifact has been corrupted
// since export that is a handful of atomic loads; otherwise the root is
// re-derived from the artifacts' digests, so bytes restored to their
// captured value verify again.
func (s *ForkSource) Verify() error {
	for i, a := range s.arts {
		if a.Corruptions() != s.gens[i] {
			if s.deriveRoot() != s.root {
				return ErrForkTampered
			}
			return nil
		}
	}
	return nil
}

// AdoptFork populates this guest from a fork source: the guest's root
// entries point at the source's frozen nodes, so every source page is
// aliased copy-on-write with artifact provenance and private pages keep
// their state (assigned+validated under SNP, under this guest's ASID).
// Where the guest already holds a node, the source's chunks are pointed at
// from a node of its own, and where it already holds the chunk too, the
// source's pages overlay it one by one. The caller must have installed the
// donor's key and ASID first (psp.LaunchStartFork does); the source is
// verified before any node is shared.
func (m *Memory) AdoptFork(src *ForkSource) error {
	if m.dir == nil {
		return ErrReleased
	}
	if src.size != m.size {
		return fmt.Errorf("guestmem: fork source is %d bytes, guest is %d: %w", src.size, m.size, ErrSize)
	}
	if err := src.Verify(); err != nil {
		return err
	}
	if len(src.privateRuns) > 0 && m.key == nil {
		return ErrNoKey
	}
	for i, e := range src.dir {
		if e.leaf == nil {
			continue
		}
		if m.dir[i].leaf == nil || e.template { // a template backs every page: nothing of the guest's own would survive the overlay
			m.dir[i] = e
			continue
		}
		own := m.ownLeaf(uint64(i))
		for c, ch := range e.leaf.chunks {
			bit := uint8(1) << c
			switch {
			case ch == nil:
			case own.chunks[c] == nil || e.leaf.template&bit != 0: // the same one level down
				own.chunks[c] = ch
				own.shared |= bit
				own.template = own.template&^bit | e.leaf.template&bit
			default:
				mine := m.ownChunk(own, uint64(c))
				for j, p := range ch {
					if p.data != nil { // every page the source backs has data
						mine[j] = p
					}
				}
			}
		}
	}
	if m.rmp != nil {
		for _, r := range src.privateRuns {
			m.rmp.AssignValidatedRange(r.pn*PageSize, int(r.count)*PageSize, m.asid)
		}
	}
	m.recorder().CounterAdd("guestmem.fork.adopted", 1)
	m.recorder().CounterAdd("guestmem.fork.aliased_pages", int64(src.npages))
	return nil
}
