package snapshot

import (
	"bytes"
	"testing"

	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// warmRestoreCopy is the §7 copy-restore recipe Fork.Boot replaced, kept
// as its reference: a new guest on host, populated by replaying a
// host-taken capture of donor. For a non-SEV donor this is a plain page
// replay. For an SEV donor the new guest opens a launch context that
// shares the donor's encryption key under the relaxed NoKeySharing=false
// policy, the host replays the captured ciphertext, and the guest
// re-validates the restored pages because RMP state does not survive.
func warmRestoreCopy(proc *sim.Proc, host *kvm.Host, donor *kvm.Machine, img *Image) (*kvm.Machine, error) {
	m := host.NewMachine(proc, img.Size, donor.Level)
	m.Timeline.Annotate("scheme", "warm-restore")
	m.Timeline.Annotate("level", donor.Level.String())
	encrypted := donor.Level.Encrypted()
	if encrypted {
		m.PrepSEVHost(proc)
		pol := firecracker.LaunchPolicy(donor.Level, true)
		ctx, err := host.PSP.LaunchStartFork(proc, m.Mem, donor.Launch, donor.Level, pol)
		if err != nil {
			return nil, err
		}
		m.Launch = ctx
	}
	if err := restoreCopy(proc, m, img); err != nil {
		return nil, err
	}
	if encrypted {
		// The restored guest re-validates its memory before resuming.
		proc.Sleep(host.Model.Pvalidate(len(img.Pages)*guestmem.PageSize, host.PvalidatePageSize()))
	}
	m.Timeline.Close(proc.Now())
	return m, nil
}

// TestForkRestoreEqualsCopyRestore is the proof that the two warm recipes
// — the copy reference's ciphertext replay and Fork.Boot's CoW aliasing —
// are indistinguishable on the virtual clock and in memory, for an SEV
// donor and a plain one: the same "snapshot.restore" span, which is the
// VMMLoad charge over the resident bytes, the same end-to-end latency, and
// byte-identical guest-visible and host-visible pages. Only digest
// provenance differs: the fork attests with the donor's measured digest,
// the copy restore with the content-free initial value — which is why
// every warm boot forks.
func TestForkRestoreEqualsCopyRestore(t *testing.T) {
	pol := firecracker.LaunchPolicy(sev.SNP, true)
	run(t, func(p *sim.Proc, h *kvm.Host) {
		sevDonor := sevGuest(t, p, h, payload(8))
		// One shared (plain-text) page beside the private payload.
		if err := sevDonor.Mem.ShareRange(0x40000, guestmem.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := sevDonor.Mem.HostWrite(0x40000, []byte("shared staging page")); err != nil {
			t.Fatal(err)
		}
		plainDonor := h.NewMachine(p, 1<<20, sev.None)
		if err := plainDonor.Mem.HostWrite(0x10000, payload(8)); err != nil {
			t.Fatal(err)
		}

		for _, tc := range []struct {
			name  string
			donor *kvm.Machine
		}{{"SEV donor", sevDonor}, {"plain donor", plainDonor}} {
			donor, encrypted := tc.donor, tc.donor.Level.Encrypted()
			var measured [32]byte
			if encrypted {
				var err error
				if measured, err = donor.Launch.LaunchFinish(p); err != nil {
					t.Fatal(err)
				}
			}
			fork, err := CaptureFork(p, donor, measured)
			if err != nil {
				t.Fatal(err)
			}
			// The copy recipe's ciphertext image is its own capture of the
			// same donor; the fork container carries none.
			img, err := Capture(p, donor)
			if err != nil {
				t.Fatal(err)
			}
			resident := len(img.Pages) * guestmem.PageSize
			if fork.Donor != donor || fork.Src.NumPages() != len(img.Pages) || fork.Src.Size() != img.Size || fork.SEV != img.SEV {
				t.Fatalf("%s: fork source covers %d pages of %d bytes (SEV %v), transport image %d of %d (SEV %v)",
					tc.name, fork.Src.NumPages(), fork.Src.Size(), fork.SEV, len(img.Pages), img.Size, img.SEV)
			}
			for _, fp := range pageList(fork) {
				if _, ok := img.Pages[fp.pn]; !ok || img.Private[fp.pn] != fp.private {
					t.Fatalf("%s: the fork's page runs list page %d (private %v), the transport image does not", tc.name, fp.pn, fp.private)
				}
			}
			if c, f := donor.Timeline.Span("snapshot.capture"), 2*h.Model.VMMLoad(resident); c != f {
				t.Fatalf("%s: capture spans total %v, want %v: CaptureFork and Capture must charge the same VMMLoad", tc.name, c, f)
			}

			start := p.Now()
			copied, err := warmRestoreCopy(p, h, donor, img)
			if err != nil {
				t.Fatal(err)
			}
			copyTotal := p.Now().Sub(start)

			start = p.Now()
			forked, err := fork.Boot(p, h, donor.Level, pol)
			if err != nil {
				t.Fatal(err)
			}
			forkTotal := p.Now().Sub(start)

			load := h.Model.VMMLoad(resident)
			if got := copied.Timeline.Span("snapshot.restore"); got != load {
				t.Fatalf("%s: copy restore span %v, want the VMMLoad charge %v", tc.name, got, load)
			}
			if got := forked.Timeline.Span("snapshot.restore"); got != load {
				t.Fatalf("%s: fork restore span %v, want the VMMLoad charge %v", tc.name, got, load)
			}
			if forkTotal != copyTotal {
				t.Fatalf("%s: warm boot latency %v (fork) != %v (copy)", tc.name, forkTotal, copyTotal)
			}

			kinds := map[bool]int{}
			for pn, captured := range img.Pages {
				gpa := pn * guestmem.PageSize
				private := img.Private[pn]
				kinds[private]++
				hostCopy, err := copied.Mem.HostRead(gpa, guestmem.PageSize)
				if err != nil {
					t.Fatal(err)
				}
				hostFork, err := forked.Mem.HostRead(gpa, guestmem.PageSize)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(hostFork, hostCopy) || !bytes.Equal(hostFork, captured) {
					t.Fatalf("%s: page %#x: host-visible bytes diverge between fork, copy and capture", tc.name, gpa)
				}
				want, err := donor.Mem.GuestRead(gpa, guestmem.PageSize, private)
				if err != nil {
					t.Fatal(err)
				}
				guestCopy, err := copied.Mem.GuestRead(gpa, guestmem.PageSize, private)
				if err != nil {
					t.Fatal(err)
				}
				guestFork, err := forked.Mem.GuestRead(gpa, guestmem.PageSize, private)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(guestFork, guestCopy) || !bytes.Equal(guestFork, want) {
					t.Fatalf("%s: page %#x: guest-visible bytes diverge between fork, copy and donor", tc.name, gpa)
				}
			}
			if kinds[false] == 0 || encrypted != (kinds[true] > 0) {
				t.Fatalf("%s: donor had %d private and %d shared pages; the SEV proof needs both, the plain one only shared", tc.name, kinds[true], kinds[false])
			}
			if c, f := copied.Mem.Stats().ResidentPages, forked.Mem.Stats().ResidentPages; c != f || f != len(img.Pages) {
				t.Fatalf("%s: resident pages: copy %d, fork %d, captured %d", tc.name, c, f, len(img.Pages))
			}

			if !encrypted {
				if copied.Launch != nil || forked.Launch != nil {
					t.Fatalf("%s: a plain warm boot opened a launch context", tc.name)
				}
				continue
			}
			if forked.Launch.Digest() != measured {
				t.Fatal("fork does not attest with the donor's measured digest")
			}
			if copied.Launch.Digest() != psp.InitialDigest(pol, sev.SNP) {
				t.Fatal("copy restore does not carry the initial digest")
			}
		}
	})
}
