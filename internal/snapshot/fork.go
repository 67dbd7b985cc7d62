package snapshot

// The fork container: a warm-pool entry that stamps out new guests by CoW
// page aliasing. It is the single representation of a warm parent — the
// donor's resident plain text frozen in place as a ForkSource (extents of
// the artifacts it aliases plus a blob of the few pages it dirtied), the
// donor machine itself (whose launch context holds the key, ASID and
// policy forks inherit), the donor's final launch digest (which forked
// guests inherit via psp.LaunchStartFork) and whether the donor was an SEV
// guest. Fork.Boot is the one warm boot. The ciphertext Image is not part
// of it: only §7 evidence (Dedup) and the sealed transport build one, with
// Capture.
//
// Virtual-time contract: CaptureFork charges exactly what Capture
// charges for the same guest, and Fork.Restore exactly what a page-by-page
// replay of Capture's image would — the same timeline spans and the same
// VMMLoad over the same byte count — so whether a warm boot copies
// ciphertext or aliases plain text is invisible on the virtual clock
// (TestForkRestoreEqualsCopyRestore, against the copy recipe kept there as
// the reference). Only the host's wall clock improves: no per-page AES and
// no copy of the image at capture, O(touched leaves) of pointer work at
// restore.

import (
	"fmt"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// Fork is a fork-ready snapshot: the in-process alias source, the donor
// machine, the donor's launch digest, and the donor's SEV flag. Donor is
// not under the seal; what a fork inherits from it — key identity and
// digest — is.
type Fork struct {
	Src    *guestmem.ForkSource
	Donor  *kvm.Machine // parked after capture; its launch context is what forks share
	Digest [32]byte     // the donor's final launch digest, inherited by forks
	SEV    bool         // the donor was an encrypted guest (Image.SEV of its transport form)
}

// CaptureFork captures a machine as a fork container. donorDigest is the
// donor's final launch digest (from LaunchFinish or GuestContext.Digest);
// forks launched from this container attest with it. The virtual-time
// cost is Capture's — the "snapshot.capture" span and a VMMLoad over the
// resident bytes — and an encrypted guest without a key is refused with
// guestmem.ErrNoKey as Capture refuses it, but no ciphertext is produced
// and the resident plain text is not copied: the host-side work is
// ExportForkSource's, proportional to the pages the guest dirtied.
func CaptureFork(proc *sim.Proc, m *kvm.Machine, donorDigest [32]byte) (*Fork, error) {
	if proc != nil {
		m.Timeline.Begin("snapshot.capture", proc.Now())
		defer func() { m.Timeline.End("snapshot.capture", proc.Now()) }()
	}
	src, err := m.Mem.ExportForkSource()
	if err != nil {
		return nil, err
	}
	if proc != nil {
		proc.Sleep(m.Host.Model.VMMLoad(src.NumPages() * guestmem.PageSize))
	}
	return &Fork{Src: src, Donor: m, Digest: donorDigest, SEV: m.Level.Encrypted()}, nil
}

// Boot starts a new guest on host forked from the container — the one warm
// boot. For an SEV donor the guest opens its launch with LaunchStartFork
// (the donor's key, ASID and launch digest, under a policy that must equal
// the donor's and permit key sharing: the §6.2 trade-off, visible in the
// measurement), memory is populated by Restore, and the guest re-validates
// the restored pages because RMP state does not survive. A plain donor
// skips the three SEV steps. Pre-encryption, measured direct boot,
// decompression and kernel init are all skipped. The caller closes the
// timeline's root span, and finishes the launch if the guest attests.
func (f *Fork) Boot(proc *sim.Proc, host *kvm.Host, level sev.Level, policy sev.Policy) (*kvm.Machine, error) {
	m := host.NewMachine(proc, f.Src.Size(), level)
	m.Timeline.Annotate("vmm", "firecracker")
	m.Timeline.Annotate("scheme", "warm-restore")
	m.Timeline.Annotate("level", level.String())
	if f.SEV {
		m.PrepSEVHost(proc)
		ctx, err := host.PSP.LaunchStartFork(proc, m.Mem, f.Donor.Launch, level, policy)
		if err != nil {
			return nil, err
		}
		m.Launch = ctx
	}
	if err := f.Restore(proc, m); err != nil {
		return nil, err
	}
	if f.SEV {
		proc.Sleep(host.Model.Pvalidate(f.Src.NumPages()*guestmem.PageSize, host.PvalidatePageSize()))
	}
	return m, nil
}

// Restore populates a machine from the fork source. The machine must
// share the donor's key and ASID (psp.LaunchStartFork installs them);
// AdoptFork verifies the fork root before any page is aliased, so a
// source tampered since capture is refused with
// guestmem.ErrForkTampered. The charge is a replay of the donor's
// transport Image: the "snapshot.restore" span and a VMMLoad over the
// resident bytes.
func (f *Fork) Restore(proc *sim.Proc, m *kvm.Machine) error {
	if m.Mem.Size() != f.Src.Size() {
		return fmt.Errorf("%w: %d vs %d", ErrSize, m.Mem.Size(), f.Src.Size())
	}
	if proc != nil {
		m.Timeline.Begin("snapshot.restore", proc.Now())
		defer func() { m.Timeline.End("snapshot.restore", proc.Now()) }()
	}
	if err := m.Mem.AdoptFork(f.Src); err != nil {
		return err
	}
	if proc != nil {
		bytes := f.Src.NumPages() * guestmem.PageSize
		proc.Sleep(m.Host.Model.VMMLoad(bytes))
	}
	return nil
}
