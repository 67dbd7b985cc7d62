package snapshot

// The fork container: a warm-pool entry that can stamp out new guests
// by CoW page aliasing instead of ciphertext replay. It pairs the
// host-visible Image (the sealable transport form — unchanged wire
// format) with the donor's plain-text ForkSource and the donor's final
// launch digest, which forked guests inherit via psp.LaunchStartFork.
//
// Virtual-time contract: Fork.Restore charges exactly what Restore
// charges for the same image — the same "snapshot.restore" timeline
// span and the same VMMLoad over the same byte count — so whether a
// warm boot copies ciphertext or aliases plain text is invisible on
// the virtual clock (TestForkRestoreEqualsCopyRestore). Only the host's
// wall clock improves: aliasing is O(resident pages) of pointer work
// with no per-page AES.

import (
	"fmt"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
)

// Fork is a fork-ready sealed snapshot: the transport image, the
// in-process alias source, and the donor's launch digest.
type Fork struct {
	Img    *Image
	Src    *guestmem.ForkSource
	Digest [32]byte // the donor's final launch digest, inherited by forks
}

// CaptureFork captures a machine as both a transport image and a fork
// source. donorDigest is the donor's final launch digest (from
// LaunchFinish or GuestContext.Digest); forks launched from this
// container attest with it. The virtual-time cost is Capture's — the
// fork-source export reuses the same resident-page walk on the host
// side and charges nothing extra.
func CaptureFork(proc *sim.Proc, m *kvm.Machine, donorDigest [32]byte) (*Fork, error) {
	img, err := Capture(proc, m)
	if err != nil {
		return nil, err
	}
	src, err := m.Mem.ExportForkSource()
	if err != nil {
		return nil, err
	}
	return &Fork{Img: img, Src: src, Digest: donorDigest}, nil
}

// Restore populates a machine from the fork source. The machine must
// share the donor's key and ASID (psp.LaunchStartFork installs them);
// AdoptFork verifies the fork root before any page is aliased, so a
// source tampered since capture is refused with
// guestmem.ErrForkTampered. Charges are identical to Restore with the
// paired Image: same timeline span, same VMMLoad byte count.
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
		bytes := len(f.Src.Pages()) * guestmem.PageSize
		proc.Sleep(m.Host.Model.VMMLoad(bytes))
	}
	return nil
}
