package snapshot

import (
	"bytes"
	"testing"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// TestForkRestoreEqualsCopyRestore is the proof that the two warm recipes
// — WarmRestore's ciphertext replay and the fork path's CoW aliasing
// (psp.LaunchStartFork + Fork.Restore) — are indistinguishable on the
// virtual clock and in memory: the same "snapshot.restore" span, which is
// the VMMLoad charge over the resident bytes, the same end-to-end
// latency, and byte-identical guest-visible and host-visible pages. Only
// digest provenance differs: the fork attests with the donor's measured
// digest, the copy restore with the content-free initial value — which is
// why fleets serving attested guests fork.
func TestForkRestoreEqualsCopyRestore(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		data := payload(8)
		donor := sevGuest(t, p, h, data)
		// One shared (plain-text) page beside the private payload.
		if err := donor.Mem.ShareRange(0x40000, guestmem.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := donor.Mem.HostWrite(0x40000, []byte("shared staging page")); err != nil {
			t.Fatal(err)
		}
		measured, err := donor.Launch.LaunchFinish(p)
		if err != nil {
			t.Fatal(err)
		}
		fork, err := CaptureFork(p, donor, measured)
		if err != nil {
			t.Fatal(err)
		}
		// The copy recipe's ciphertext image is its own capture of the same
		// donor; the fork container no longer carries one.
		img, err := Capture(p, donor)
		if err != nil {
			t.Fatal(err)
		}
		resident := len(img.Pages) * guestmem.PageSize
		if fork.Src.NumPages() != len(img.Pages) || fork.Src.Size() != img.Size || fork.SEV != img.SEV {
			t.Fatalf("fork source covers %d pages of %d bytes (SEV %v), transport image %d of %d (SEV %v)",
				fork.Src.NumPages(), fork.Src.Size(), fork.SEV, len(img.Pages), img.Size, img.SEV)
		}
		for _, fp := range pageList(fork) {
			if _, ok := img.Pages[fp.pn]; !ok || img.Private[fp.pn] != fp.private {
				t.Fatalf("the fork's page runs list page %d (private %v), the transport image does not", fp.pn, fp.private)
			}
		}
		if c, f := donor.Timeline.Span("snapshot.capture"), 2*h.Model.VMMLoad(resident); c != f {
			t.Fatalf("capture spans total %v, want %v: CaptureFork and Capture must charge the same VMMLoad", c, f)
		}

		start := p.Now()
		copied, err := WarmRestore(p, h, donor, img)
		if err != nil {
			t.Fatal(err)
		}
		copyTotal := p.Now().Sub(start)

		pol := sev.DefaultPolicy()
		pol.NoKeySharing = false
		start = p.Now()
		forked := h.NewMachine(p, fork.Src.Size(), sev.SNP)
		forked.PrepSEVHost(p)
		if forked.Launch, err = h.PSP.LaunchStartFork(p, forked.Mem, donor.Launch, sev.SNP, pol); err != nil {
			t.Fatal(err)
		}
		if err := fork.Restore(p, forked); err != nil {
			t.Fatal(err)
		}
		p.Sleep(h.Model.Pvalidate(resident, h.PvalidatePageSize()))
		forkTotal := p.Now().Sub(start)

		load := h.Model.VMMLoad(resident)
		if got := copied.Timeline.Span("snapshot.restore"); got != load {
			t.Fatalf("copy restore span %v, want the VMMLoad charge %v", got, load)
		}
		if got := forked.Timeline.Span("snapshot.restore"); got != load {
			t.Fatalf("fork restore span %v, want the VMMLoad charge %v", got, load)
		}
		if forkTotal != copyTotal {
			t.Fatalf("warm boot latency %v (fork) != %v (copy)", forkTotal, copyTotal)
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
				t.Fatalf("page %#x: host-visible bytes diverge between fork, copy and capture", gpa)
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
				t.Fatalf("page %#x: guest-visible bytes diverge between fork, copy and donor", gpa)
			}
		}
		if kinds[true] == 0 || kinds[false] == 0 {
			t.Fatalf("donor had %d private and %d shared pages; the proof needs both", kinds[true], kinds[false])
		}
		if c, f := copied.Mem.Stats().ResidentPages, forked.Mem.Stats().ResidentPages; c != f || f != len(img.Pages) {
			t.Fatalf("resident pages: copy %d, fork %d, captured %d", c, f, len(img.Pages))
		}

		if forked.Launch.Digest() != measured {
			t.Fatal("fork does not attest with the donor's measured digest")
		}
		if copied.Launch.Digest() != psp.InitialDigest(pol, sev.SNP) {
			t.Fatal("copy restore does not carry the initial digest")
		}
	})
}
