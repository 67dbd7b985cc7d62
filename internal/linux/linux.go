// Package linux models the guest Linux boot from the handoff the boot
// verifier (or a direct-boot VMM) leaves, with the data path executed for
// real against guest memory:
//
//   - The bzImage bootstrap-loader stage parses the (verified, private)
//     image, decompresses its payload with the matching codec, and places
//     the vmlinux ELF segments at their run addresses — the "Bootstrap
//     Loader" bar of Fig. 11. A payload the process compressed itself is
//     not decoded again; a tampered or foreign one is decoded for real.
//   - The kernel stage consumes boot_params, the command line, the
//     mptable, and the initrd exactly where the VMM/verifier put them,
//     failing the boot if any are malformed — then charges the per-preset
//     init time (×~2.3 under SNP, §6.2) and "execs init" from the initrd.
package linux

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/bootparams"
	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/cpio"
	"github.com/severifast/severifast/internal/elfx"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/mptable"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/verifier"
	"github.com/severifast/severifast/internal/virtio"
)

// BootReport summarizes a completed guest boot.
type BootReport struct {
	CPUs       int
	CmdlineLen int
	InitrdOK   bool
	Entry      uint64
	// DevicesOK counts virtio devices that probed successfully.
	DevicesOK int
	// RootfsMagicOK reports that the first sector of /dev/vda carried the
	// expected magic (a real virtqueue round trip during boot).
	RootfsMagicOK bool
}

// Boot runs the guest from the verifier handoff to init. The preset
// supplies the kernel's init-time characteristics.
func Boot(proc *sim.Proc, m *kvm.Machine, h *verifier.Handoff, preset kernelgen.Preset) (*BootReport, error) {
	cbit := m.Level.Encrypted()

	entry := h.Entry
	if h.Kind == verifier.KindBzImage {
		m.DebugEvent(proc, sev.EvBootstrapStart)
		m.Timeline.Begin("bootstrap", proc.Now())
		var err error
		entry, err = runBootstrapLoader(proc, m, h, cbit)
		if err != nil {
			return nil, err
		}
		m.Timeline.End("bootstrap", proc.Now())
	}
	m.DebugEvent(proc, sev.EvKernelEntry)
	m.Timeline.Begin("linux.boot", proc.Now())
	rep, err := kernelInit(proc, m, entry, preset, cbit)
	if err != nil {
		return nil, err
	}
	m.Timeline.End("linux.boot", proc.Now())
	m.DebugEvent(proc, sev.EvInitExec)
	return rep, nil
}

// runBootstrapLoader is the bzImage setup/decompressor stage: it reads the
// protected image, decompresses the payload, and loads the ELF segments to
// their run addresses.
func runBootstrapLoader(proc *sim.Proc, m *kvm.Machine, h *verifier.Handoff, cbit bool) (uint64, error) {
	model := m.Host.Model
	proc.Sleep(model.BzImageSetupCost)

	// The verified image resolves, as the initrd does, to the artifact its
	// private pages alias when they still carry provenance, and the vmlinux
	// is memoised on that range of it (bzimage.VMLinuxOf): every microVM on
	// the host boots the same kernel image (the serverless assumption of
	// §6.1), so it is decoded once per image, and not at all when the
	// process built the image and remembered what it compressed. A tampered
	// image was Corrupted, which drops the memo, or lost its provenance; a
	// foreign one was never remembered: those are decoded for real, the
	// last from a copy read out of the guest. The guest's decompression is
	// charged in virtual time whichever happened.
	img, base, err := m.Mem.ArtifactRange(h.KernelGPA, h.KernelSize, cbit)
	if err != nil {
		return 0, fmt.Errorf("linux: reading bzImage: %w", err)
	}
	if img == nil {
		raw, err := m.Mem.GuestRead(h.KernelGPA, h.KernelSize, cbit)
		if err != nil {
			return 0, fmt.Errorf("linux: reading bzImage: %w", err)
		}
		img, base = artifact.Of(raw), 0
	}
	vart, codec, err := bzimage.VMLinuxOf(img, base, h.KernelSize)
	if err != nil {
		return 0, fmt.Errorf("linux: bootstrap loader: %w", err)
	}
	vmlinux := vart.Bytes()
	proc.Sleep(model.Decompress(string(codec), len(vmlinux)))

	// Place each PT_LOAD region at its run address, zero-copy from the
	// shared vmlinux. The ELF parse is memoized on it, and loading through
	// the artifact keeps per-page provenance so later reads of kernel text
	// stay zero-copy too.
	regionsAny, err := vart.Derived("elfx.regions", func() (any, error) {
		return elfx.FileRegions(vmlinux)
	})
	if err != nil {
		return 0, fmt.Errorf("linux: embedded vmlinux: %w", err)
	}
	regions := regionsAny.([]elfx.FileRegion)
	loaded := 0
	for _, r := range regions {
		if !r.Load || r.Len == 0 {
			continue
		}
		if err := m.Mem.GuestWriteArtifact(r.Vaddr, vart, int(r.Off), r.Len, cbit); err != nil {
			return 0, fmt.Errorf("linux: loading segment at %#x: %w", r.Vaddr, err)
		}
		loaded += r.Len
	}
	proc.Sleep(model.Copy(loaded))
	return binary.LittleEndian.Uint64(vmlinux[24:]), nil
}

// kernelInit is the vmlinux stage: consume the boot structures, mount the
// initrd, run init.
func kernelInit(proc *sim.Proc, m *kvm.Machine, entry uint64, preset kernelgen.Preset, cbit bool) (*BootReport, error) {
	model := m.Host.Model

	// Sanity: there is executable kernel text at the entry point. This
	// read, the command line's and the mptable's are parsed, never written,
	// so they are views of the artifact the pages alias when they still do.
	text, _, err := m.Mem.GuestView(entry, 64, cbit)
	if err != nil {
		return nil, fmt.Errorf("linux: no kernel at entry %#x: %w", entry, err)
	}
	allZero := true
	for _, b := range text {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return nil, fmt.Errorf("linux: entry point %#x is unmapped zeros", entry)
	}

	// boot_params: on an SEV boot the verifier patched the initrd size into
	// the page, so it aliases no artifact; the view is of the guest's own
	// page, which Parse copies out of.
	zp, _, err := m.Mem.GuestView(measure.GPAZeroPage, bootparams.Size, cbit)
	if err != nil {
		return nil, fmt.Errorf("linux: reading zero page: %w", err)
	}
	params, err := bootparams.Parse(zp)
	if err != nil {
		return nil, fmt.Errorf("linux: %w", err)
	}

	// Command line.
	cmdRaw, _, err := m.Mem.GuestView(uint64(params.CmdlinePtr), int(params.CmdlineSize), cbit)
	if err != nil {
		return nil, fmt.Errorf("linux: reading cmdline: %w", err)
	}
	if params.CmdlineSize > 0 && bytes.IndexByte(cmdRaw, '=') < 0 {
		return nil, fmt.Errorf("linux: implausible cmdline %q", cmdRaw)
	}

	// MP table discovery: the _MP_ floating pointer is in the EBDA's first
	// KiB, the window Linux's smp_scan_config scans, which ends on a page
	// boundary, so it is a view. The config table follows the pointer, and
	// one longer than the window (38 vCPUs or more) is read by the length
	// its header declares.
	mpRaw, _, err := m.Mem.GuestView(measure.GPAMPTable, 1024, cbit)
	if err == nil && string(mpRaw[:4]) == "_MP_" && string(mpRaw[16:20]) == "PCMP" {
		if n := 16 + int(binary.LittleEndian.Uint16(mpRaw[20:])); n > len(mpRaw) {
			mpRaw, err = m.Mem.GuestRead(measure.GPAMPTable, n, cbit)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("linux: reading mptable: %w", err)
	}
	mpInfo, err := mptable.Parse(mpRaw)
	if err != nil {
		return nil, fmt.Errorf("linux: %w", err)
	}

	// Initrd: unpack the CPIO and find /init. When the resident initrd
	// pages still carry their canonical-artifact provenance (the zero-copy
	// fleet path), the parse is memoized on the artifact: every boot of a
	// registered image resolves to the same (artifact, offset), so the
	// multi-megabyte archive is read and unpacked once per image, not once
	// per boot.
	initrdOK := false
	if params.RamdiskSize > 0 {
		rdGPA, rdSize := uint64(params.RamdiskImage), int(params.RamdiskSize)
		art, base, err := m.Mem.ArtifactRange(rdGPA, rdSize, cbit)
		if err != nil {
			return nil, fmt.Errorf("linux: reading initrd: %w", err)
		}
		var files []cpio.File
		if art != nil {
			filesAny, derr := art.Derived(fmt.Sprintf("cpio.files:%d:%d", base, rdSize), func() (any, error) {
				return cpio.Parse(art.Bytes()[base : base+rdSize])
			})
			if derr != nil {
				return nil, fmt.Errorf("linux: unpacking initrd: %w", derr)
			}
			files = filesAny.([]cpio.File)
		} else {
			archive, err := m.Mem.GuestRead(rdGPA, rdSize, cbit)
			if err != nil {
				return nil, fmt.Errorf("linux: reading initrd: %w", err)
			}
			files, err = cpio.Parse(archive)
			if err != nil {
				return nil, fmt.Errorf("linux: unpacking initrd: %w", err)
			}
		}
		if cpio.Lookup(files, "init") == nil {
			return nil, fmt.Errorf("linux: initrd has no /init")
		}
		initrdOK = true
		// Unpacking cost: the CPIO is copied into the tmpfs rootfs.
		proc.Sleep(model.Copy(rdSize))
	}

	// Virtio device probes: real register negotiation and, for the block
	// device, a real virtqueue round trip to read the rootfs superblock.
	// Confidential guests place rings and bounce buffers in shared memory
	// (swiotlb), as the drivers must.
	devicesOK := 0
	rootfsOK := false
	for i, dev := range m.Devices {
		ringGPA := uint64(0xD000000) + uint64(i)*0x100000
		bufGPA := ringGPA + 0x40000
		want := uint64(0)
		if dev.ID == virtio.IDBlk {
			want = virtio.FeatBlkFlush
		}
		dr, err := virtio.Probe(dev, m.Mem, ringGPA, bufGPA, want, cbit)
		if err != nil {
			return nil, fmt.Errorf("linux: virtio device %d: %w", i, err)
		}
		proc.Sleep(model.VirtioProbe)
		devicesOK++
		if dev.ID == virtio.IDBlk {
			req := make([]byte, 9)
			req[0] = 'R'
			sector, err := dr.Request(req, 512, 0)
			if err != nil {
				return nil, fmt.Errorf("linux: reading rootfs superblock: %w", err)
			}
			rootfsOK = bytes.HasPrefix(sector, []byte("SVFROOT1"))
			if !rootfsOK {
				return nil, fmt.Errorf("linux: /dev/vda has no rootfs magic")
			}
		}
	}

	// The remaining kernel init work (driver probes, subsystem init,
	// scheduler up, ...). Under SNP every guest memory write takes an RMP
	// check and world switches take #VC handling (§6.2's ~2.3x).
	initTime := preset.LinuxBootBase
	if m.Level.HasRMP() {
		initTime = multDuration(initTime, model.SNPLinuxBootMultiplier)
	} else if m.Level.Encrypted() {
		// SEV/SEV-ES: encryption engine latency only; small uplift.
		initTime = multDuration(initTime, 1.0+(model.SNPLinuxBootMultiplier-1.0)/4)
	}
	proc.Sleep(initTime)

	return &BootReport{
		CPUs:          mpInfo.CPUs,
		CmdlineLen:    len(cmdRaw),
		InitrdOK:      initrdOK,
		Entry:         entry,
		DevicesOK:     devicesOK,
		RootfsMagicOK: rootfsOK,
	}, nil
}

func multDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
