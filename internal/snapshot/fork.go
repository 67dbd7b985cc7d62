package snapshot

// The fork container: a warm-pool entry that can stamp out new guests
// by CoW page aliasing instead of ciphertext replay. It is the single
// representation of a warm parent — the donor's resident plain text
// frozen in place as a ForkSource (extents of the artifacts it aliases
// plus a blob of the few pages it dirtied),
// the donor's final launch digest (which forked guests inherit via
// psp.LaunchStartFork) and whether the donor was an SEV guest. The
// ciphertext transport Image is not part of it: only the paths that
// replay ciphertext (WarmRestore, an out-of-process snapshot) build one,
// with Capture.
//
// Virtual-time contract: CaptureFork charges exactly what Capture
// charges for the same guest, and Fork.Restore exactly what Restore
// charges for the same image — the same timeline spans and the same
// VMMLoad over the same byte count — so whether a warm boot copies
// ciphertext or aliases plain text is invisible on the virtual clock
// (TestForkRestoreEqualsCopyRestore). Only the host's wall clock
// improves: no per-page AES and no copy of the image at capture, O(touched
// leaves) of pointer work at restore.

import (
	"fmt"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
)

// Fork is a fork-ready snapshot: the in-process alias source, the donor's
// launch digest, and the donor's SEV flag.
type Fork struct {
	Src    *guestmem.ForkSource
	Digest [32]byte // the donor's final launch digest, inherited by forks
	SEV    bool     // the donor was an encrypted guest (Image.SEV of its transport form)
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
	return &Fork{Src: src, Digest: donorDigest, SEV: m.Level.Encrypted()}, nil
}

// Restore populates a machine from the fork source. The machine must
// share the donor's key and ASID (psp.LaunchStartFork installs them);
// AdoptFork verifies the fork root before any page is aliased, so a
// source tampered since capture is refused with
// guestmem.ErrForkTampered. Charges are identical to Restore with the
// donor's transport Image: same timeline span, same VMMLoad byte count.
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
