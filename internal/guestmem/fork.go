package guestmem

// Snapshot-fork support: a ForkSource is one guest's resident plain
// text, frozen into a single immutable artifact so any number of later
// guests can alias it copy-on-write. Where snapshot.Restore replays
// ciphertext page by page (O(image) AES work per warm boot), AdoptFork
// is O(resident pages) of pointer aliasing plus one O(1) root-digest
// check — the forked guest shares the donor's key and ASID (installed
// by psp.LaunchStartFork), so the host-visible ciphertext of every
// aliased private page is bit-identical to what a copy restore would
// have produced, and a write to any page breaks its alias in mutable()
// before the bytes can diverge.
//
// Soundness: the root digest is taken over the full plain-text blob at
// capture time. AdoptFork re-checks it before aliasing a single page;
// artifact.Corrupt (the chaos engine's tamper model) invalidates the
// blob's digest memo, so a tampered blob re-hashes honestly and the
// fork is refused with ErrForkTampered. A fork can therefore never go
// live with pages that differ from the measured parent.

import (
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
}

// ExportForkSource freezes the guest's resident pages — plain text, in
// page-number order — into one blob and records its digest as the fork
// root. The blob's handle travels with the source (adopted pages carry
// it as provenance), so it stays out of the process intern table and is
// collected with the last fork container that references it. The donor
// must not be mutated afterwards (fleet keeps donors parked for exactly
// this reason).
func (m *Memory) ExportForkSource() (*ForkSource, error) {
	var pns []uint64
	for pn, p := range m.pages { // dense, so pns comes out sorted
		if p != nil && (p.data != nil || p.encrypted) {
			pns = append(pns, uint64(pn))
		}
	}
	blob := make([]byte, len(pns)*PageSize)
	pages := make([]ForkPage, len(pns))
	for i, pn := range pns {
		p := m.pages[pn]
		copy(blob[i*PageSize:], p.readable())
		pages[i] = ForkPage{PN: pn, Off: i * PageSize, Private: p.encrypted}
	}
	buf := artifact.Of(blob)
	src := &ForkSource{size: m.size, pages: pages, blob: buf}
	if buf != nil {
		src.root = buf.Digest()
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

// AdoptFork populates this guest from a fork source: every source page
// is aliased copy-on-write with artifact provenance, private pages keep
// their state (assigned+validated under SNP). The caller must have
// installed the donor's key and ASID first (psp.LaunchStartFork does);
// the root digest is verified before any page is touched.
func (m *Memory) AdoptFork(src *ForkSource) error {
	if src.size != m.size {
		return fmt.Errorf("guestmem: fork source is %d bytes, guest is %d: %w", src.size, m.size, ErrSize)
	}
	if err := src.Verify(); err != nil {
		return err
	}
	anyPrivate := false
	for _, fp := range src.pages {
		if fp.Private {
			anyPrivate = true
			break
		}
	}
	if anyPrivate && m.key == nil {
		return ErrNoKey
	}
	blob := src.blob.Bytes()
	// Private pages land assigned+validated; contiguous runs batch into
	// one RMP splice each instead of a per-page table write.
	runLo, runHi := uint64(0), uint64(0) // [runLo, runHi) pending private pns
	flush := func() {
		if m.rmp != nil && runHi > runLo {
			m.rmp.AssignValidatedRange(runLo*PageSize, int(runHi-runLo)*PageSize, m.asid)
		}
	}
	for _, fp := range src.pages {
		p := m.getPage(fp.PN)
		p.data = blob[fp.Off : fp.Off+PageSize : fp.Off+PageSize]
		p.cow = true
		p.art, p.artOff = src.blob, fp.Off
		p.encrypted = fp.Private
		if fp.Private {
			if fp.PN == runHi && runHi > runLo {
				runHi++
			} else {
				flush()
				runLo, runHi = fp.PN, fp.PN+1
			}
		}
	}
	flush()
	m.recorder().CounterAdd("guestmem.fork.adopted", 1)
	m.recorder().CounterAdd("guestmem.fork.aliased_pages", int64(len(src.pages)))
	return nil
}
