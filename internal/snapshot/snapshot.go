// Package snapshot implements microVM warm start and the paper's §7
// warm-start analysis. The paper leaves warm start for SEV guests as
// future work but spells out the obstacles; this package builds the
// substrate and demonstrates each obstacle as a checkable behaviour:
//
//   - A warm boot forks a parked donor (Fork, Fork.Boot): its pages are
//     aliased, not copied, for plain and SEV guests alike. A plain guest
//     forks cheaply (the REAP/Catalyzer family of systems the paper cites).
//   - An SEV guest's memory, as the host sees it, is ciphertext (Capture).
//     Replaying it into a *new* launch context (fresh key) yields garbage
//     the guest cannot run: cold boot cannot be skipped by the host.
//   - Forking under a *shared* key (the paper's §6.2 near-term idea for
//     the PSP bottleneck) works and is fast — but the launch policy must
//     set NoKeySharing=false, which the guest owner sees in the
//     attestation report: the weakened trust model is visible, exactly as
//     the paper warns.
//   - Ciphertext pages of guests with different keys (or the same content
//     at different addresses) never deduplicate, which is why keep-alive
//     pools of SEV guests pay full memory (§7.1, Dedup).
//
// The ciphertext Image is evidence and transport, never a boot path: Dedup
// measures it, the sealed container (EncodeSealed) carries it out of
// process, and the tests replay it to show the cross-key failure.
package snapshot

import (
	"crypto/sha256"
	"errors"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
)

// ErrSize reports a restore into a guest of a different size.
var ErrSize = errors.New("snapshot: guest size mismatch")

// Image is a host-taken snapshot of guest memory: what the hypervisor can
// see. Private pages are captured as ciphertext (the host cannot do
// better), shared pages as plain text.
type Image struct {
	Size uint64
	// Pages maps page number -> captured bytes. Only resident pages are
	// captured; nil entries never appear.
	Pages map[uint64][]byte
	// Private marks pages that were encrypted at capture time.
	Private map[uint64]bool
	// SEV records whether the source guest was encrypted.
	SEV bool
}

// Capture snapshots a machine's memory from the host side. The cost is
// charged per resident byte (dirty-page tracking is assumed, as in the
// paper's citations).
func Capture(proc *sim.Proc, m *kvm.Machine) (*Image, error) {
	if proc != nil {
		m.Timeline.Begin("snapshot.capture", proc.Now())
		defer func() { m.Timeline.End("snapshot.capture", proc.Now()) }()
	}
	img := &Image{
		Size:    m.Mem.Size(),
		Pages:   make(map[uint64][]byte),
		Private: make(map[uint64]bool),
		SEV:     m.Level.Encrypted(),
	}
	// Bulk export: one pass over resident pages instead of a
	// page-at-a-time HostRead loop. The host-visible bytes are identical.
	exports, err := m.Mem.ExportPages()
	if err != nil {
		return nil, err
	}
	bytes := 0
	for _, e := range exports {
		img.Pages[e.PN] = e.Data
		img.Private[e.PN] = e.Private
		bytes += guestmem.PageSize
	}
	if proc != nil {
		proc.Sleep(m.Host.Model.VMMLoad(bytes)) // memcpy-bound capture
	}
	return img, nil
}

// DedupStats measures page-level deduplication opportunity across a set
// of snapshots, as a memory balloon/KSM daemon would: pages with equal
// *host-visible* bytes can share one frame. Private (encrypted) pages are
// tracked separately: shared staging pages of SEV guests still dedup, but
// encrypted pages never do.
type DedupStats struct {
	TotalPages    int
	UniquePages   int
	PrivatePages  int
	UniquePrivate int
}

// SharedFraction is the fraction of all pages that deduplicate away.
func (d DedupStats) SharedFraction() float64 {
	if d.TotalPages == 0 {
		return 0
	}
	return 1 - float64(d.UniquePages)/float64(d.TotalPages)
}

// PrivateSharedFraction is the fraction of *encrypted* pages that
// deduplicate away — the paper's §7.1 quantity, which is ~0 for SEV.
func (d DedupStats) PrivateSharedFraction() float64 {
	if d.PrivatePages == 0 {
		return 0
	}
	return 1 - float64(d.UniquePrivate)/float64(d.PrivatePages)
}

// Dedup hashes every captured page across the images and counts unique
// contents. For non-SEV guests booted from the same kernel this approaches
// 1.0 shared; for SEV guests the encrypted pages approach 0.0 because
// per-guest keys and address tweaks give identical plain text distinct
// ciphertext (§7.1).
func Dedup(images ...*Image) DedupStats {
	seen := make(map[[32]byte]bool)
	seenPriv := make(map[[32]byte]bool)
	var stats DedupStats
	for _, img := range images {
		for pn, data := range img.Pages {
			stats.TotalPages++
			h := sha256.Sum256(data)
			if !seen[h] {
				seen[h] = true
				stats.UniquePages++
			}
			if img.Private[pn] {
				stats.PrivatePages++
				if !seenPriv[h] {
					seenPriv[h] = true
					stats.UniquePrivate++
				}
			}
		}
	}
	return stats
}
