package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// ErrEncrypted is Verify's refusal: the restored pages decrypt to garbage.
var ErrEncrypted = errors.New("snapshot: restoring an SEV snapshot into a different key space yields ciphertext")

// Verify checks whether the restored guest sees the same plain text the
// source guest had at the probe addresses. It returns ErrEncrypted when
// the restored pages decrypt to garbage (the SEV cross-key case).
func Verify(src, dst *kvm.Machine, probes []uint64, want map[uint64][]byte) error {
	for _, gpa := range probes {
		got, err := dst.Mem.GuestRead(gpa, len(want[gpa]), dst.Level.Encrypted())
		if err != nil {
			return err
		}
		if string(got) != string(want[gpa]) {
			return fmt.Errorf("%w: probe at %#x differs", ErrEncrypted, gpa)
		}
	}
	return nil
}

// restoreCopy writes a capture into a machine's memory from the host side,
// page by page. For non-SEV guests this reconstructs the exact
// pre-snapshot state. For SEV guests the host can only replay the captured
// *ciphertext* (guestmem.HostRestoreCiphertext); unless the target guest
// shares the source's encryption key (and ASID-derived tweaks), the guest
// reads garbage — Verify reports whether it sees its old state. The charge
// is Fork.Restore's: the "snapshot.restore" span and a VMMLoad over the
// replayed bytes.
func restoreCopy(proc *sim.Proc, m *kvm.Machine, img *Image) error {
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

// run executes fn on a fresh engine+host process.
func run(t *testing.T, fn func(p *sim.Proc, h *kvm.Host)) {
	t.Helper()
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("test", func(p *sim.Proc) { fn(p, host) })
	eng.Run()
}

// payload is the guest state we snapshot: deterministic bytes across a
// few pages.
func payload(tag byte) []byte {
	b := make([]byte, 8*guestmem.PageSize)
	for i := range b {
		b[i] = byte(i) ^ tag
	}
	return b
}

func TestPlainSnapshotRestoreRoundTrip(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		src := h.NewMachine(p, 1<<20, sev.None)
		data := payload(0)
		if err := src.Mem.HostWrite(0x10000, data); err != nil {
			t.Fatal(err)
		}
		img, err := Capture(p, src)
		if err != nil {
			t.Fatal(err)
		}
		dst := h.NewMachine(p, 1<<20, sev.None)
		if err := restoreCopy(p, dst, img); err != nil {
			t.Fatal(err)
		}
		got, err := dst.Mem.GuestRead(0x10000, len(data), false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("plain warm start lost guest state")
		}
	})
}

// sevGuest launches an SNP machine with key-sharing-permissive policy and
// writes private payload pages.
func sevGuest(t *testing.T, p *sim.Proc, h *kvm.Host, data []byte) *kvm.Machine {
	t.Helper()
	m := h.NewMachine(p, 1<<20, sev.SNP)
	pol := sev.DefaultPolicy()
	pol.NoKeySharing = false // warm-start experiments need sharing
	if err := m.StartLaunch(p, pol); err != nil {
		t.Fatal(err)
	}
	table, asid := m.Mem.RMP()
	if err := table.PvalidateRangeSkipValidated(0, int(m.Mem.Size()), 2<<20, asid); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.GuestWrite(0x10000, data, true); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSEVSnapshotIsCiphertext(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		data := payload(1)
		src := sevGuest(t, p, h, data)
		img, err := Capture(p, src)
		if err != nil {
			t.Fatal(err)
		}
		if !img.SEV {
			t.Fatal("image not marked SEV")
		}
		pn := uint64(0x10000) / guestmem.PageSize
		if !img.Private[pn] {
			t.Fatal("payload page not marked private")
		}
		if bytes.Equal(img.Pages[pn], data[:guestmem.PageSize]) {
			t.Fatal("snapshot leaked plain text of an SEV guest")
		}
	})
}

func TestSEVRestoreIntoFreshKeyYieldsGarbage(t *testing.T) {
	// The paper's core warm-start obstacle: the host cannot rehydrate an
	// SEV guest into a new launch context.
	run(t, func(p *sim.Proc, h *kvm.Host) {
		data := payload(2)
		src := sevGuest(t, p, h, data)
		img, err := Capture(p, src)
		if err != nil {
			t.Fatal(err)
		}
		dst := sevGuest(t, p, h, payload(3)) // fresh key, different ASID
		if err := restoreCopy(p, dst, img); err != nil {
			t.Fatal(err)
		}
		want := map[uint64][]byte{0x10000: data[:64]}
		err = Verify(src, dst, []uint64{0x10000}, want)
		if !errors.Is(err, ErrEncrypted) {
			t.Fatalf("cross-key restore verified: %v", err)
		}
	})
}

func TestSEVRestoreUnderSharedKeyWorks(t *testing.T) {
	// §6.2's near-term idea: share the encryption key. Restore then
	// reproduces the guest's state — at the cost of a policy the guest
	// owner can see.
	run(t, func(p *sim.Proc, h *kvm.Host) {
		data := payload(4)
		src := sevGuest(t, p, h, data)
		if _, err := src.Launch.LaunchFinish(p); err != nil {
			t.Fatal(err)
		}
		img, err := Capture(p, src)
		if err != nil {
			t.Fatal(err)
		}

		dst := h.NewMachine(p, 1<<20, sev.SNP)
		pol := sev.DefaultPolicy()
		pol.NoKeySharing = false
		ctx, err := h.PSP.LaunchStartFork(p, dst.Mem, src.Launch, sev.SNP, pol)
		if err != nil {
			t.Fatal(err)
		}
		dst.Launch = ctx
		if err := restoreCopy(p, dst, img); err != nil {
			t.Fatal(err)
		}
		want := map[uint64][]byte{0x10000: data[:64]}
		if err := Verify(src, dst, []uint64{0x10000}, want); err != nil {
			t.Fatalf("shared-key restore failed verification: %v", err)
		}
	})
}

func TestSharedKeyLaunchRequiresPermissivePolicy(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		src := h.NewMachine(p, 1<<20, sev.SNP)
		strict := sev.DefaultPolicy() // NoKeySharing = true
		if err := src.StartLaunch(p, strict); err != nil {
			t.Fatal(err)
		}
		dst := h.NewMachine(p, 1<<20, sev.SNP)
		pol := strict
		pol.NoKeySharing = false
		if _, err := h.PSP.LaunchStartFork(p, dst.Mem, src.Launch, sev.SNP, pol); !errors.Is(err, psp.ErrPolicy) {
			t.Fatalf("shared key against the donor's NoKeySharing policy: %v, want psp.ErrPolicy", err)
		}
	})
}

func TestSharedKeyVisibleInMeasurement(t *testing.T) {
	// The weakened trust model is not silent: the relaxed policy changes
	// the launch digest and the attestation report.
	strict := sev.DefaultPolicy()
	relaxed := strict
	relaxed.NoKeySharing = false
	run(t, func(p *sim.Proc, h *kvm.Host) {
		a := h.NewMachine(p, 1<<20, sev.SNP)
		if err := a.StartLaunch(p, strict); err != nil {
			t.Fatal(err)
		}
		b := h.NewMachine(p, 1<<20, sev.SNP)
		if err := b.StartLaunch(p, relaxed); err != nil {
			t.Fatal(err)
		}
		da, _ := a.Launch.LaunchFinish(p)
		db, _ := b.Launch.LaunchFinish(p)
		if da == db {
			t.Fatal("key-sharing policy is invisible in the measurement")
		}
	})
}

func TestDedupPlainGuestsShareAlmostEverything(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		data := payload(5)
		var images []*Image
		for i := 0; i < 3; i++ {
			m := h.NewMachine(p, 1<<20, sev.None)
			if err := m.Mem.HostWrite(0x10000, data); err != nil {
				t.Fatal(err)
			}
			img, err := Capture(p, m)
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, img)
		}
		stats := Dedup(images...)
		if stats.SharedFraction() < 0.6 {
			t.Fatalf("plain guests shared only %.2f of pages", stats.SharedFraction())
		}
	})
}

func TestDedupSEVGuestsShareNothing(t *testing.T) {
	// §7.1: "pages with identical contents at different physical addresses
	// will have different ciphertext" — and across guests too. Dedup gets
	// zero traction.
	run(t, func(p *sim.Proc, h *kvm.Host) {
		data := payload(6)
		var images []*Image
		for i := 0; i < 3; i++ {
			m := sevGuest(t, p, h, data)
			img, err := Capture(p, m)
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, img)
		}
		stats := Dedup(images...)
		if stats.PrivateSharedFraction() > 0.001 {
			t.Fatalf("SEV guests shared %.3f of private pages; ciphertext must not dedup", stats.PrivateSharedFraction())
		}
		if stats.PrivatePages == 0 {
			t.Fatal("no private pages captured")
		}
	})
}

func TestRestoreRejectsSizeMismatch(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		src := h.NewMachine(p, 1<<20, sev.None)
		img, err := Capture(p, src)
		if err != nil {
			t.Fatal(err)
		}
		dst := h.NewMachine(p, 2<<20, sev.None)
		if err := restoreCopy(p, dst, img); !errors.Is(err, ErrSize) {
			t.Fatalf("size mismatch accepted by the copy replay: %v", err)
		}
		fork, err := CaptureFork(p, src, [32]byte{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fork.Restore(p, dst); !errors.Is(err, ErrSize) {
			t.Fatalf("size mismatch accepted by the fork: %v", err)
		}
	})
}

// TestWarmStartCostSEVIncludesRevalidation: of a warm boot's latency
// beyond restoring the pages, a plain guest pays nothing and an SEV guest
// at least the re-validation of every restored page — on the copy
// reference and on Fork.Boot alike.
func TestWarmStartCostSEVIncludesRevalidation(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		data := payload(7)
		plain := h.NewMachine(p, 1<<20, sev.None)
		if err := plain.Mem.HostWrite(0x10000, data); err != nil {
			t.Fatal(err)
		}
		enc := sevGuest(t, p, h, data)
		digest, err := enc.Launch.LaunchFinish(p)
		if err != nil {
			t.Fatal(err)
		}
		// recipes capture donor each way and return its warm boot.
		recipes := map[string]func(donor *kvm.Machine) func() (*kvm.Machine, error){
			"copy": func(donor *kvm.Machine) func() (*kvm.Machine, error) {
				img, err := Capture(p, donor)
				if err != nil {
					t.Fatal(err)
				}
				return func() (*kvm.Machine, error) { return warmRestoreCopy(p, h, donor, img) }
			},
			"fork": func(donor *kvm.Machine) func() (*kvm.Machine, error) {
				fork, err := CaptureFork(p, donor, digest)
				if err != nil {
					t.Fatal(err)
				}
				pol := firecracker.LaunchPolicy(donor.Level, true)
				return func() (*kvm.Machine, error) { return fork.Boot(p, h, donor.Level, pol) }
			},
		}
		for name, capture := range recipes {
			// cost is a warm boot's latency beyond the page restore itself,
			// and the pages it restored.
			cost := func(donor *kvm.Machine) (time.Duration, int) {
				boot := capture(donor)
				start := p.Now()
				m, err := boot()
				if err != nil {
					t.Fatal(err)
				}
				return p.Now().Sub(start) - m.Timeline.Span("snapshot.restore"), m.Mem.Stats().ResidentPages
			}
			if extra, _ := cost(plain); extra != 0 {
				t.Fatalf("%s: plain warm start paid %v beyond page restore", name, extra)
			}
			extra, pages := cost(enc)
			if revalidate := h.Model.Pvalidate(pages*guestmem.PageSize, h.PvalidatePageSize()); revalidate <= 0 || extra < revalidate {
				t.Fatalf("%s: SEV warm start paid %v beyond page restore, want at least the %v re-validation", name, extra, revalidate)
			}
		}
	})
}
