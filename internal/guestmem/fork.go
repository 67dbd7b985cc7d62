package guestmem

// Snapshot-fork support: a ForkSource is one guest's resident plain
// text, frozen into a single immutable artifact, plus a frozen page
// directory whose pages alias that artifact copy-on-write. Where
// snapshot.Restore replays ciphertext page by page (O(image) AES work per
// warm boot), AdoptFork points the child's root entries at the frozen
// leaves — one store per touched 2 MiB of guest — replays the source's
// private-page runs into the child's RMP, and makes one O(1) root-digest
// check. The forked guest shares the donor's key and ASID (installed by
// psp.LaunchStartFork), so the host-visible ciphertext of every aliased
// private page is bit-identical to what a copy restore would have
// produced. A store to any page first copies its leaf into the child
// (ownLeaf) and then breaks the page's alias (mutable), so neither the
// frozen directory nor the blob can diverge.
//
// Soundness: the root digest is taken over the full plain-text blob at
// capture time. AdoptFork re-checks it before sharing a single leaf;
// artifact.Corrupt (the chaos engine's tamper model) invalidates the
// blob's digest memo, so a tampered blob re-hashes honestly and the
// fork is refused with ErrForkTampered. A fork can therefore never go
// live with pages that differ from the measured parent.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/artifact"
)

// ErrForkTampered reports a fork source whose blob no longer matches
// the root digest recorded at capture.
var ErrForkTampered = errors.New("guestmem: fork source tampered since capture")

// ForkPage locates one resident page inside a ForkSource blob.
type ForkPage struct {
	PN      uint64 // guest page number
	Off     int    // byte offset of the page's plain text inside the blob
	Private bool   // page was in the encrypted state at capture
}

// ForkSource is a frozen copy of a guest's resident plain text,
// fork-adoptable by any guest of the same size that shares the donor's
// encryption key and ASID.
type ForkSource struct {
	size  uint64
	pages []ForkPage
	blob  *artifact.Buf
	root  [32]byte
	keyID [32]byte

	// Built once at export, read-only afterwards, shared by every
	// adopter: the directory a forked guest starts from (every entry
	// frozen, every backed page aliasing blob copy-on-write with
	// provenance) and the maximal runs of private pages to
	// assign+validate in the adopter's RMP.
	dir         []dirEntry
	privateRuns []pageRun
}

// pageRun is count consecutive pages starting at page number pn.
type pageRun struct{ pn, count uint64 }

// ExportForkSource freezes the guest's resident pages — plain text, in
// page-number order — into one blob, records its digest as the fork
// root, and builds the frozen directory adopters will share. The blob's
// handle travels with the source (adopted pages carry it as provenance),
// so it stays out of the process intern table and is collected with the
// last fork container that references it. The donor must not be mutated
// afterwards (fleet keeps donors parked for exactly this reason). A guest
// holding private pages without an installed key is refused with
// ErrNoKey, as ExportPages refuses it: nothing could ever adopt the
// source.
func (m *Memory) ExportForkSource() (*ForkSource, error) {
	var pages []ForkPage
	anyPrivate := false
	m.eachResident(func(pn uint64, p page) {
		pages = append(pages, ForkPage{PN: pn, Off: len(pages) * PageSize, Private: p.encrypted})
		anyPrivate = anyPrivate || p.encrypted
	})
	if anyPrivate && m.key == nil {
		return nil, ErrNoKey
	}
	blob := make([]byte, len(pages)*PageSize)
	for _, fp := range pages {
		copy(blob[fp.Off:], m.look(fp.PN).readable())
	}
	buf := artifact.Of(blob)
	src := &ForkSource{size: m.size, pages: pages, blob: buf, keyID: m.keyID(), dir: make([]dirEntry, len(m.dir))}
	if buf != nil {
		src.root = buf.Digest()
	}
	for _, fp := range pages {
		e := &src.dir[fp.PN/leafPages]
		if e.leaf == nil {
			*e = dirEntry{leaf: new(leaf), frozen: true}
		}
		p := &e.leaf[fp.PN%leafPages]
		p.alias(blob[fp.Off:fp.Off+PageSize], buf, fp.Off)
		p.encrypted = fp.Private
		if !fp.Private {
			continue
		}
		if n := len(src.privateRuns); n > 0 && src.privateRuns[n-1].pn+src.privateRuns[n-1].count == fp.PN {
			src.privateRuns[n-1].count++
		} else {
			src.privateRuns = append(src.privateRuns, pageRun{pn: fp.PN, count: 1})
		}
	}
	m.recorder().CounterAdd("guestmem.fork.exported", 1)
	m.recorder().CounterAdd("guestmem.fork.exported_bytes", int64(len(blob)))
	return src, nil
}

// Pages returns the source's page table (read-only).
func (s *ForkSource) Pages() []ForkPage { return s.pages }

// Size returns the donor guest's memory size.
func (s *ForkSource) Size() uint64 { return s.size }

// Root returns the digest of the plain-text blob at capture time.
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

// Blob exposes the backing artifact. The chaos engine corrupts it to
// prove forks of a tampered parent are refused.
func (s *ForkSource) Blob() *artifact.Buf { return s.blob }

// Verify re-hashes the blob (O(1) when the digest memo is intact) and
// reports whether it still matches the fork root.
func (s *ForkSource) Verify() error {
	if s.blob == nil {
		if len(s.pages) != 0 {
			return fmt.Errorf("%w: %d pages with no backing blob", ErrForkTampered, len(s.pages))
		}
		return nil
	}
	if s.blob.Digest() != s.root {
		return ErrForkTampered
	}
	return nil
}

// AdoptFork populates this guest from a fork source: the guest's root
// entries point at the source's frozen leaves, so every source page is
// aliased copy-on-write with artifact provenance and private pages keep
// their state (assigned+validated under SNP, under this guest's ASID).
// Where the guest already owns a leaf, the source's pages overlay it one
// by one. The caller must have installed the donor's key and ASID first
// (psp.LaunchStartFork does); the root digest is verified before any
// leaf is shared.
func (m *Memory) AdoptFork(src *ForkSource) error {
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
		if m.dir[i].leaf == nil {
			m.dir[i] = e
			continue
		}
		own := m.ownLeaf(uint64(i))
		for j, p := range e.leaf {
			if p.data != nil { // every page the source backs has data
				own[j] = p
			}
		}
	}
	if m.rmp != nil {
		for _, r := range src.privateRuns {
			m.rmp.AssignValidatedRange(r.pn*PageSize, int(r.count)*PageSize, m.asid)
		}
	}
	m.recorder().CounterAdd("guestmem.fork.adopted", 1)
	m.recorder().CounterAdd("guestmem.fork.aliased_pages", int64(len(src.pages)))
	return nil
}
