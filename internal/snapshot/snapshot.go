// Package snapshot implements microVM snapshot/restore and the paper's §7
// warm-start analysis. The paper leaves warm start for SEV guests as
// future work but spells out the obstacles; this package builds the
// substrate and demonstrates each obstacle as a checkable behaviour:
//
//   - Non-confidential guests snapshot and restore cheaply, and identical
//     snapshots deduplicate almost perfectly (the REAP/Catalyzer family
//     of systems the paper cites).
//   - An SEV guest's snapshot, taken by the host, contains ciphertext.
//     Restoring it into a *new* launch context (fresh key) yields garbage
//     the guest cannot run: cold boot cannot be skipped by the host.
//   - Restoring under a *shared* key (the paper's §6.2 near-term idea for
//     the PSP bottleneck) works and is fast — but the launch policy must
//     set NoKeySharing=false, which the guest owner sees in the
//     attestation report: the weakened trust model is visible, exactly as
//     the paper warns.
//   - Ciphertext pages of guests with different keys (or the same content
//     at different addresses) never deduplicate, which is why keep-alive
//     pools of SEV guests pay full memory (§7.1).
package snapshot

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/firecracker"
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
	// Bulk export: one pass over resident pages with the per-page AES
	// transforms spread across the hostwork pool, instead of a
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

// Restore writes a snapshot into a machine's memory from the host side.
// For non-SEV guests this reconstructs the exact pre-snapshot state. For
// SEV guests the host can only replay the captured *ciphertext*; unless
// the target guest shares the source's encryption key (and ASID-derived
// tweaks), the guest will read garbage — Verify reports whether the
// restored guest actually sees its old state.
func Restore(proc *sim.Proc, m *kvm.Machine, img *Image) error {
	if m.Mem.Size() != img.Size {
		return fmt.Errorf("%w: %d vs %d", ErrSize, m.Mem.Size(), img.Size)
	}
	if proc != nil {
		m.Timeline.Begin("snapshot.restore", proc.Now())
		defer func() { m.Timeline.End("snapshot.restore", proc.Now()) }()
	}
	bytes := 0
	for pn, data := range img.Pages {
		gpa := pn * guestmem.PageSize
		if img.Private[pn] {
			// The host replays ciphertext into the page and marks it
			// private again; decryption happens through the target
			// guest's key on access.
			if err := m.Mem.HostRestoreCiphertext(gpa, data); err != nil {
				return err
			}
		} else {
			if err := m.Mem.HostWrite(gpa, data); err != nil {
				return err
			}
		}
		bytes += len(data)
	}
	if proc != nil {
		proc.Sleep(m.Host.Model.VMMLoad(bytes))
	}
	return nil
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

// WarmRestore starts a new guest on host from a host-taken snapshot
// instead of cold-booting — the paper's §7 copy-restore recipe. It is the
// warm path for non-SEV guests and for the §7 experiments; a finished SEV
// donor is forked instead (CaptureFork, psp.LaunchStartFork,
// Fork.Restore), which costs the same virtual time and keeps the donor's
// measured launch digest.
//
// For a non-SEV donor this is a plain page replay. For an SEV donor the
// new guest opens a launch context that shares the donor's encryption
// key under the relaxed NoKeySharing=false policy (the §6.2 trade-off,
// visible in the measurement; the donor must have launched with it too),
// the host replays the captured ciphertext, and the guest re-validates
// the restored pages because RMP state does not survive. Pre-encryption,
// measured direct boot, decompression and kernel init are all skipped.
func WarmRestore(proc *sim.Proc, host *kvm.Host, donor *kvm.Machine, img *Image) (*kvm.Machine, error) {
	m := host.NewMachine(proc, img.Size, donor.Level)
	m.Timeline.Annotate("scheme", "warm-restore")
	m.Timeline.Annotate("level", donor.Level.String())
	encrypted := donor.Level.Encrypted()
	if encrypted {
		m.PrepSEVHost(proc)
		pol := firecracker.LaunchPolicy(donor.Level, true)
		ctx, err := host.PSP.LaunchStartShared(proc, m.Mem, donor.Launch, donor.Level, pol)
		if err != nil {
			return nil, err
		}
		m.Launch = ctx
	}
	if err := Restore(proc, m, img); err != nil {
		return nil, err
	}
	if encrypted {
		// The restored guest re-validates its memory before resuming.
		proc.Sleep(host.Model.Pvalidate(len(img.Pages)*guestmem.PageSize, host.PvalidatePageSize()))
	}
	m.Timeline.Close(proc.Now())
	return m, nil
}
