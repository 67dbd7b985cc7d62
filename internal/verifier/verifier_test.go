package verifier

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/pagetable"
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

// TestRunDetectsCorruptedEdgePage: the ragged last page of a staged
// initrd is a padded page every boot of it shares, memoised on the
// artifact. Corrupting a byte of the artifact inside that page after a
// boot has memoised it must reach the next boot's staged page — the memo
// does not outlive the corruption — and that boot must be refused.
func TestRunDetectsCorruptedEdgePage(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	artifact.Intern(art.BzImageLZ4)
	initrd := ownBytes(77, 1<<20+1500) // this test's own bytes: it corrupts them
	buf := artifact.Intern(initrd)
	h := measure.HashComponents(art.BzImageLZ4, initrd, "console=ttyS0 root=/dev/vda")
	off := len(initrd) - 700

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m, in := setupSEVMachine(t, p, host, art.BzImageLZ4, initrd, h)
		if _, err := Run(p, m, in); err != nil {
			t.Errorf("the boot before the corruption: %v", err)
			return
		}
		before := initrd[off]
		buf.Corrupt(off, 0x20)
		defer buf.Corrupt(off, 0x20)
		next, in := setupSEVMachine(t, p, host, art.BzImageLZ4, initrd, h)
		staged, err := next.Mem.HostRead(measure.GPAStageB+uint64(off), 1)
		if err != nil {
			t.Error(err)
			return
		}
		if staged[0] != before^0x20 {
			t.Errorf("staged byte %#x, want the tampered %#x: the edge page outlived the corruption", staged[0], before^0x20)
		}
		if _, err := Run(p, next, in); !errors.Is(err, ErrVerification) {
			t.Errorf("initrd corrupted inside its edge page: err = %v, want ErrVerification", err)
		}
	})
	eng.Run()
}

// TestStoreIntoSharedPageStaysInItsGuest: two guests verified on one host
// share their page-table pages and the padded last page of the initrd's
// private copy. A guest store into either copies the page for that guest;
// the other guest, and the host's tables, keep their bytes.
func TestStoreIntoSharedPageStaysInItsGuest(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	artifact.Intern(art.BzImageLZ4)
	initrd := ownBytes(78, 1<<20+1500)
	artifact.Intern(initrd)
	h := measure.HashComponents(art.BzImageLZ4, initrd, "console=ttyS0 root=/dev/vda")
	edge := measure.GPAInitrd + uint64(len(initrd))&^4095

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		var guests [2]*kvm.Machine
		for i := range guests {
			m, in := setupSEVMachine(t, p, host, art.BzImageLZ4, initrd, h)
			if _, err := Run(p, m, in); err != nil {
				t.Error(err)
				return
			}
			guests[i] = m
		}
		a, b := guests[0], guests[1]
		ptCfg := pagetable.Config{Base: measure.GPAPageTables, MapSize: a.Mem.Size(), SetCBit: true}
		tables := append([]byte(nil), host.PageTables(ptCfg).Bytes()...)
		if !bytes.Equal(tables, pagetable.Build(ptCfg)) {
			t.Fatal("the host's page tables are not the ones pagetable.Build makes")
		}
		wantEdge := initrd[len(initrd)&^4095:]
		for _, gpa := range []uint64{measure.GPAPageTables + 8, measure.GPAPageTables + 0x2000 + 16, edge + 5} {
			aliased := a.Mem.Stats().AliasedPages
			if err := a.Mem.GuestWrite(gpa, []byte{0xEE, 0xEE}, true); err != nil {
				t.Error(err)
				return
			}
			if got := a.Mem.Stats().AliasedPages; got != aliased-1 {
				t.Errorf("store at %#x: %d aliased pages, want %d — the store did not copy the page it hit", gpa, got, aliased-1)
			}
		}
		if got, err := b.Mem.GuestRead(measure.GPAPageTables, pagetable.TotalSize, true); err != nil || !bytes.Equal(got, tables) {
			t.Errorf("a store into one guest's page tables reached another guest's (err %v)", err)
		}
		if got, err := b.Mem.GuestRead(edge, len(wantEdge), true); err != nil || !bytes.Equal(got, wantEdge) {
			t.Errorf("a store into one guest's initrd edge page reached another guest's (err %v)", err)
		}
		if !bytes.Equal(host.PageTables(ptCfg).Bytes(), tables) {
			t.Error("a guest store reached the host's page tables")
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

// setupStream is setupSEVMachine for the fw_cfg stream of a vmlinux.
func setupStream(t *testing.T, p *sim.Proc, host *kvm.Host, vmlinux, initrd []byte, h measure.ComponentHashes) (*kvm.Machine, Inputs) {
	t.Helper()
	m, in := setupSEVMachine(t, p, host, vmlinux, initrd, h)
	chunks, err := BuildChunks(vmlinux, measure.GPAStageA)
	if err != nil {
		t.Fatal(err)
	}
	in.Kind, in.Chunks = KindVmlinux, chunks
	return m, in
}

// TestRunStreamedVmlinux streams the kernel both ways the verifier can
// prove it: interned, where every load segment aliases the artifact at the
// byte offset the file keeps it and nothing is hashed, and unknown to the
// process, where every chunk is copied and hashed for real. Either way
// each segment's private copy is the file's bytes at its run address.
func TestRunStreamedVmlinux(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	for _, interned := range []bool{true, false} {
		name := "hashed"
		if interned {
			name = "aliased"
		}
		t.Run(name, func(t *testing.T) {
			artifact.ResetForTest()
			if interned {
				artifact.Intern(art.VMLinux)
			}
			h := measure.HashComponents(art.VMLinux, initrd, "console=ttyS0 root=/dev/vda")
			eng := sim.NewEngine()
			host := kvm.NewHost(eng, costmodel.Default(), 1)
			eng.Go("vcpu", func(p *sim.Proc) {
				m, in := setupStream(t, p, host, art.VMLinux, initrd, h)
				handoff, err := Run(p, m, in)
				if err != nil {
					t.Error(err)
					return
				}
				if handoff.Entry != art.Entry {
					t.Errorf("entry %#x, want %#x", handoff.Entry, art.Entry)
				}
				// The kernel is already at its run addresses, private.
				for _, c := range in.Chunks {
					if c.DestGPA == 0 {
						continue
					}
					got, err := m.Mem.GuestRead(c.DestGPA, c.Size, true)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, art.VMLinux[c.FileOff:c.FileOff+uint64(c.Size)]) {
						t.Errorf("segment at %#x: the private copy is not the file's bytes", c.DestGPA)
					}
				}
				aliased := m.Mem.Stats().AliasedPages > 2*len(art.VMLinux)/4096*9/10 // staged and placed
				if aliased != interned {
					t.Errorf("interned=%v, but %d aliased pages say the segments were aliased=%v", interned, m.Mem.Stats().AliasedPages, aliased)
				}
			})
			eng.Run()
		})
	}
}

// TestRunStreamDetectsStagedBitFlip: one bit flipped in the staged vmlinux
// costs the host the boot wherever it lands — in a sub-page chunk that is
// really copied (the header, retained until the artifact has a name; a gap,
// compared with it at once), inside a run of pages the segment would have
// aliased, or in a partial first or last page that a segment shares with
// its neighbours — and reaches nothing the next guest uses.
func TestRunStreamDetectsStagedBitFlip(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	artifact.Intern(art.VMLinux)
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	h := measure.HashComponents(art.VMLinux, initrd, "console=ttyS0 root=/dev/vda")
	chunks, err := BuildChunks(art.VMLinux, measure.GPAStageA)
	if err != nil {
		t.Fatal(err)
	}
	var loads []Chunk
	for _, c := range chunks {
		if c.DestGPA != 0 {
			loads = append(loads, c)
		}
	}
	if chunks[0].DestGPA != 0 || chunks[0].Size >= 4096 || chunks[2].DestGPA != 0 || chunks[2].Size == 0 || len(loads) < 2 || loads[1].StageGPA%4096 == 0 {
		t.Fatalf("the stream is not a sub-page header, then segments at unaligned file offsets with gaps between: %+v", chunks)
	}
	text := loads[0]
	for _, flip := range []struct {
		name string
		gpa  uint64
	}{
		{"header chunk", chunks[0].StageGPA + 24},
		{"alignment gap after the artifact has a name", chunks[2].StageGPA},
		{"interior page of the text segment", text.StageGPA + uint64(text.Size)/2},
		{"first partial page of a segment", loads[1].StageGPA},
		{"last partial page of a segment", text.StageGPA + uint64(text.Size) - 1},
	} {
		t.Run(flip.name, func(t *testing.T) {
			eng := sim.NewEngine()
			host := kvm.NewHost(eng, costmodel.Default(), 1)
			eng.Go("vcpu", func(p *sim.Proc) {
				m, in := setupStream(t, p, host, art.VMLinux, initrd, h)
				b, err := m.Mem.HostRead(flip.gpa, 1)
				if err != nil {
					t.Error(err)
					return
				}
				b[0] ^= 0x10
				if err := m.Mem.HostWrite(flip.gpa, b); err != nil {
					t.Error(err)
					return
				}
				if _, err := Run(p, m, in); !errors.Is(err, ErrVerification) {
					t.Errorf("bit flipped at staged %#x: err = %v, want ErrVerification", flip.gpa, err)
				}
				next, in := setupStream(t, p, host, art.VMLinux, initrd, h)
				if _, err := Run(p, next, in); err != nil {
					t.Errorf("the guest after the tampered one: %v", err)
				}
			})
			eng.Run()
		})
	}
}

// TestRunStreamPrivateCopyOutlivesStaging: an aliased segment points at the
// artifact, not at the staging pages it was copied from, so what the host
// does to those after verification changes neither the private copy nor
// its hash.
func TestRunStreamPrivateCopyOutlivesStaging(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	artifact.Intern(art.VMLinux)
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	h := measure.HashComponents(art.VMLinux, initrd, "console=ttyS0 root=/dev/vda")

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m, in := setupStream(t, p, host, art.VMLinux, initrd, h)
		if _, err := Run(p, m, in); err != nil {
			t.Error(err)
			return
		}
		text := in.Chunks[1]
		before, err := m.Mem.HashRange(text.DestGPA, text.Size, true)
		if err != nil {
			t.Error(err)
			return
		}
		// The guest validated all of its memory; it hands the staging range
		// back, as it would a DMA buffer, and the host scribbles on it.
		scribble := bytes.Repeat([]byte{0xEE}, 3*4096+100)
		if err := m.Mem.ShareRange(text.StageGPA, len(scribble)); err != nil {
			t.Error(err)
			return
		}
		if err := m.Mem.HostWrite(text.StageGPA, scribble); err != nil {
			t.Error(err)
			return
		}
		got, err := m.Mem.GuestRead(text.DestGPA, text.Size, true)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, art.VMLinux[text.FileOff:text.FileOff+uint64(text.Size)]) {
			t.Error("a host write to the staging range showed through the private copy")
		}
		if after, err := m.Mem.HashRange(text.DestGPA, text.Size, true); err != nil || after != before {
			t.Errorf("a host write to the staging range moved the private copy's hash (err %v)", err)
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
	junk := kernelgen.BuildBinary(3, 1<<20)
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

// ownBytes returns n bytes from seed in an array of the caller's own, which
// it may tamper without touching anything another test shares.
func ownBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}
