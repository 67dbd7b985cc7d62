package verifier

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

func TestImageSizeAndDeterminism(t *testing.T) {
	a, b := Image(1), Image(1)
	if len(a) != ImageSize || ImageSize != 13*1024 {
		t.Fatalf("verifier image %d bytes, want 13 KiB (paper §4.1)", len(a))
	}
	if !bytes.Equal(a, b) {
		t.Fatal("verifier image not deterministic; it is measured")
	}
	if bytes.Equal(a, Image(2)) {
		t.Fatal("different builds produced identical images")
	}
}

func TestBuildChunksTileTheFile(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	const stage = 0x5000000
	chunks, err := BuildChunks(art.VMLinux, stage)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks must tile the file exactly, in order.
	var cursor uint64
	total := 0
	loads := 0
	for i, c := range chunks {
		if c.FileOff != cursor {
			t.Fatalf("chunk %d at %#x, want %#x (gap or overlap)", i, c.FileOff, cursor)
		}
		if c.StageGPA != stage+c.FileOff {
			t.Fatalf("chunk %d staged at %#x", i, c.StageGPA)
		}
		cursor += uint64(c.Size)
		total += c.Size
		if c.DestGPA != 0 {
			loads++
		}
	}
	if total != len(art.VMLinux) {
		t.Fatalf("chunks cover %d bytes of %d", total, len(art.VMLinux))
	}
	if loads != 3 {
		t.Fatalf("%d load chunks, want 3 (the PT_LOAD segments)", loads)
	}
	// A streaming hash over the chunks equals the whole-file hash — the
	// property the fw_cfg protocol's verification rests on.
	h := sha256.New()
	for _, c := range chunks {
		h.Write(art.VMLinux[c.FileOff : c.FileOff+uint64(c.Size)])
	}
	var got [32]byte
	copy(got[:], h.Sum(nil))
	if got != sha256.Sum256(art.VMLinux) {
		t.Fatal("streamed hash != file hash")
	}
}

func TestBuildChunksRejectsGarbage(t *testing.T) {
	if _, err := BuildChunks([]byte("not an elf"), 0); err == nil {
		t.Fatal("garbage accepted")
	}
}

// setupSEVMachine builds a machine mid-launch, with the SEVeriFast plan
// pre-encrypted and components staged, ready for Run.
func setupSEVMachine(t *testing.T, p *sim.Proc, host *kvm.Host, kernel, initrd []byte, h measure.ComponentHashes) (*kvm.Machine, Inputs) {
	t.Helper()
	m := host.NewMachine(p, 256<<20, sev.SNP)
	m.PrepSEVHost(p)

	if err := m.Mem.HostWriteAliased(measure.GPAStageA, kernel); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.HostWriteAliased(measure.GPAStageB, initrd); err != nil {
		t.Fatal(err)
	}
	if err := m.StartLaunch(p, sev.DefaultPolicy()); err != nil {
		t.Fatal(err)
	}
	regions, err := measure.Plan(measure.Config{
		Verifier: Image(1),
		Hashes:   h,
		Cmdline:  "console=ttyS0 root=/dev/vda",
		VCPUs:    1,
		MemSize:  256 << 20,
		Level:    sev.SNP,
		Policy:   sev.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if err := m.Mem.HostWrite(r.GPA, r.Data); err != nil {
			t.Fatal(err)
		}
		if err := m.Launch.LaunchUpdateData(p, r.GPA, len(r.Data), r.Type); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Launch.LaunchFinish(p); err != nil {
		t.Fatal(err)
	}
	in := Inputs{
		Kind:           KindBzImage,
		StageGPA:       measure.GPAStageA,
		KernelSize:     len(kernel),
		KernelDstGPA:   measure.GPABzTarget,
		InitrdStageGPA: measure.GPAStageB,
		InitrdSize:     len(initrd),
		InitrdDstGPA:   measure.GPAInitrd,
		ScratchGPA:     measure.GPAScratch,
	}
	return m, in
}

func TestRunVerifiesAndProtectsComponents(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	h := measure.HashComponents(art.BzImageLZ4, initrd, "console=ttyS0 root=/dev/vda")

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m, in := setupSEVMachine(t, p, host, art.BzImageLZ4, initrd, h)
		handoff, err := Run(p, m, in)
		if err != nil {
			t.Error(err)
			return
		}
		if handoff.KernelGPA != measure.GPABzTarget {
			t.Errorf("kernel at %#x", handoff.KernelGPA)
		}
		// The verified kernel lives in private memory: the host must see
		// ciphertext, the guest plain text.
		hostView, err := m.Mem.HostRead(measure.GPABzTarget, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		if bytes.Equal(hostView, art.BzImageLZ4[:4096]) {
			t.Error("verified kernel still plain text to the host")
		}
		guestView, err := m.Mem.GuestRead(measure.GPABzTarget, 4096, true)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(guestView, art.BzImageLZ4[:4096]) {
			t.Error("guest cannot read its protected kernel")
		}
		// boot_params got the real initrd size (the pre-encrypted page
		// carried zero to keep the measurement stable).
		zp, err := m.Mem.GuestRead(measure.GPAZeroPage+0x21C, 4, true)
		if err != nil {
			t.Error(err)
			return
		}
		got := int(zp[0]) | int(zp[1])<<8 | int(zp[2])<<16 | int(zp[3])<<24
		if got != len(initrd) {
			t.Errorf("boot_params ramdisk_size = %d, want %d", got, len(initrd))
		}
	})
	eng.Run()
}

func TestRunDetectsSwappedKernelAfterMeasurement(t *testing.T) {
	// The host stages the right kernel, the hashes are measured, and THEN
	// the host swaps the staged bytes before guest entry — the classic
	// TOCTOU the boot verifier exists to close.
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	h := measure.HashComponents(art.BzImageLZ4, initrd, "console=ttyS0 root=/dev/vda")

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m, in := setupSEVMachine(t, p, host, art.BzImageLZ4, initrd, h)
		// Swap one byte of the *staged* kernel post-measurement. Staging
		// is shared memory, so the RMP permits it.
		evil := append([]byte(nil), art.BzImageLZ4...)
		evil[12345] ^= 1
		if err := m.Mem.HostWriteAliased(measure.GPAStageA, evil); err != nil {
			t.Error(err)
			return
		}
		if _, err := Run(p, m, in); !errors.Is(err, ErrVerification) {
			t.Errorf("swapped kernel: err = %v, want ErrVerification", err)
		}
	})
	eng.Run()
}

// TestRunDetectsBitFlipInsideSharedLeaf: the staged kernel's first 2 MiB
// are not page structs this guest owns but a template leaf every guest of
// the image shares. One flipped bit there must still cost the host the
// boot — the store takes the leaf private first, breaks that page's alias,
// and the verifier's hash of the private copy is over the flipped bytes —
// and must not reach the template: the next guest boots.
func TestRunDetectsBitFlipInsideSharedLeaf(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	if len(art.BzImageLZ4) < 2<<20 || measure.GPAStageA%(2<<20) != 0 {
		t.Fatalf("a %d-byte kernel staged at %#x covers no whole 2 MiB leaf", len(art.BzImageLZ4), uint64(measure.GPAStageA))
	}
	artifact.Intern(art.BzImageLZ4) // as a registered image's kernel is: staging finds the handle
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	h := measure.HashComponents(art.BzImageLZ4, initrd, "console=ttyS0 root=/dev/vda")

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	counter := func(name string) int64 {
		_, c := host.HostStats.Snapshot()
		return c[name]
	}
	eng.Go("vcpu", func(p *sim.Proc) {
		m, in := setupSEVMachine(t, p, host, art.BzImageLZ4, initrd, h)
		if counter("guestmem.leaf.shared") == 0 {
			t.Error("staging the kernel shared no template leaf: the flip below would not be inside one")
			return
		}
		owned := counter("guestmem.leaf.owned")
		flipped, err := m.Mem.HostRead(measure.GPAStageA+12345, 1)
		if err != nil {
			t.Error(err)
			return
		}
		flipped[0] ^= 1
		if err := m.Mem.HostWrite(measure.GPAStageA+12345, flipped); err != nil {
			t.Error(err)
			return
		}
		if counter("guestmem.leaf.owned") != owned+1 {
			t.Error("the flip did not take the shared leaf private")
		}
		if _, err := Run(p, m, in); !errors.Is(err, ErrVerification) {
			t.Errorf("bit flipped in the staged kernel: err = %v, want ErrVerification", err)
		}
		next, in := setupSEVMachine(t, p, host, art.BzImageLZ4, initrd, h)
		if _, err := Run(p, next, in); err != nil {
			t.Errorf("the guest after the tampered one: %v", err)
		}
	})
	eng.Run()
}

func TestRunRejectsNonTilingChunks(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	h := measure.HashComponents(art.VMLinux, initrd, "console=ttyS0 root=/dev/vda")

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m, in := setupSEVMachine(t, p, host, art.VMLinux, initrd, h)
		chunks, err := BuildChunks(art.VMLinux, measure.GPAStageA)
		if err != nil {
			t.Error(err)
			return
		}
		// Drop a chunk: the host tries to hide part of the file from the
		// hash stream.
		in.Kind = KindVmlinux
		in.Chunks = append(chunks[:1:1], chunks[2:]...)
		if _, err := Run(p, m, in); err == nil {
			t.Error("non-tiling chunk stream accepted")
		}
	})
	eng.Run()
}

func TestRunStreamedVmlinux(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	h := measure.HashComponents(art.VMLinux, initrd, "console=ttyS0 root=/dev/vda")

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m, in := setupSEVMachine(t, p, host, art.VMLinux, initrd, h)
		chunks, err := BuildChunks(art.VMLinux, measure.GPAStageA)
		if err != nil {
			t.Error(err)
			return
		}
		in.Kind = KindVmlinux
		in.Chunks = chunks
		handoff, err := Run(p, m, in)
		if err != nil {
			t.Error(err)
			return
		}
		if handoff.Entry != art.Entry {
			t.Errorf("entry %#x, want %#x", handoff.Entry, art.Entry)
		}
		// The kernel text is already at its run address, private.
		text, err := m.Mem.GuestRead(art.Entry, 64, true)
		if err != nil {
			t.Error(err)
			return
		}
		allZero := true
		for _, b := range text {
			if b != 0 {
				allZero = false
			}
		}
		if allZero {
			t.Error("no kernel text at entry after streaming")
		}
	})
	eng.Run()
}

func TestRunNonSEVSkipsVerification(t *testing.T) {
	// The verifier also runs for non-encrypted guests (the qemu flow can
	// be used without SEV); there it just loads, without hash checks.
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m := host.NewMachine(p, 256<<20, sev.None)
		if err := m.Mem.HostWriteAliased(measure.GPAStageA, art.BzImageLZ4); err != nil {
			t.Error(err)
			return
		}
		in := Inputs{
			Kind:         KindBzImage,
			StageGPA:     measure.GPAStageA,
			KernelSize:   len(art.BzImageLZ4),
			KernelDstGPA: measure.GPABzTarget,
			ScratchGPA:   measure.GPAScratch,
		}
		if _, err := Run(p, m, in); err != nil {
			t.Errorf("non-SEV verifier run failed: %v", err)
		}
	})
	eng.Run()
}

func TestRunRejectsNonBzImage(t *testing.T) {
	junk := kernelgen.GenBinary(3, 1<<20)
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	h := measure.HashComponents(junk, initrd, "console=ttyS0 root=/dev/vda")

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m, in := setupSEVMachine(t, p, host, junk, initrd, h)
		if _, err := Run(p, m, in); err == nil {
			t.Error("junk kernel accepted (hash matched but format must be checked)")
		}
	})
	eng.Run()
}
