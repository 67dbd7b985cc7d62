// Package firecracker launches SEV guests on both monitors the paper
// compares: Firecracker with SEVeriFast's modifications (paper §5) — the
// stock direct-boot path (unchanged, no SEV) and the SEV boot path, which
// pre-encrypts the minimal root of trust, stages components for measured
// direct boot, and enters the guest at the boot verifier — and the
// QEMU/OVMF baseline it is evaluated against (§2.5).
//
// Four boot schemes reproduce the paper's comparisons:
//
//	SchemeStock             Fig. 11's "Stock FC": direct vmlinux boot, no SEV
//	SchemeSEVeriFastBz      SEVeriFast with an LZ4 bzImage (the design point)
//	SchemeSEVeriFastVmlinux SEVeriFast with an uncompressed vmlinux over the
//	                        optimized fw_cfg streaming protocol (§5)
//	SchemeQEMUOVMF          the QEMU/OVMF baseline (Figs. 9 and 10): full
//	                        OVMF pre-encryption, then UEFI boot
//
// Config is the one launch description of every scheme: Boot launches it
// on its monitor, and ExpectedDigest and ComponentHashes measure it.
package firecracker

import (
	"fmt"
	"sync"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/bootparams"
	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/linux"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/mptable"
	"github.com/severifast/severifast/internal/ovmf"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/trace"
	"github.com/severifast/severifast/internal/verifier"
	"github.com/severifast/severifast/internal/virtio"
)

// Scheme selects the boot path.
type Scheme int

// Boot schemes.
const (
	SchemeStock Scheme = iota
	SchemeSEVeriFastBz
	SchemeSEVeriFastVmlinux
	SchemeQEMUOVMF
)

func (s Scheme) String() string {
	switch s {
	case SchemeStock:
		return "stock-fc"
	case SchemeSEVeriFastBz:
		return "severifast-bz"
	case SchemeSEVeriFastVmlinux:
		return "severifast-vmlinux"
	case SchemeQEMUOVMF:
		return "qemu-ovmf"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// monitor names the VMM that launches the scheme.
func (s Scheme) monitor() string {
	if s == SchemeQEMUOVMF {
		return "qemu"
	}
	return "firecracker"
}

// Attestor performs remote attestation for a booted guest; implemented by
// internal/attest, whose ForLaunch leaves it nil where there is nothing to
// attest with (the Lupine kernel has no networking, paper §6.1; a plain
// guest has no report).
type Attestor interface {
	Attest(proc *sim.Proc, m *kvm.Machine) error
}

// Config is the VM configuration file plus SEVeriFast's extra arguments
// (boot verifier and hash file, §4.3/§5).
type Config struct {
	Preset    kernelgen.Preset
	Artifacts *kernelgen.Artifacts
	Initrd    []byte
	Cmdline   string // defaults to the preset's
	VCPUs     int    // defaults to 1
	MemSize   uint64 // defaults to 256 MiB
	Level     sev.Level
	Scheme    Scheme

	// Codec overrides the bzImage compression for SchemeSEVeriFastBz
	// (lz4 is the design default; gzip reproduces Fig. 5's alternative).
	Codec bzimage.Codec

	// Hashes carries the out-of-band component hashes (§4.3). Nil means
	// the VMM hashes the components itself at launch — the in-band
	// ablation, which puts ~Hash(kernel)+Hash(initrd) on the critical path.
	Hashes *measure.ComponentHashes

	// Plan carries a precomputed launch plan (the measured-image cache in
	// internal/fleet memoizes it per image). Nil means the VMM plans at
	// launch time. A non-nil Plan requires Hashes: the plan embeds the
	// hash page, so the two must come from the same measurement pass.
	Plan []measure.Region

	// PreEncryptPageTables is the Fig. 7 ablation.
	PreEncryptPageTables bool

	// VerifierSeed selects the boot verifier build; changing it models
	// shipping a different verifier (which attestation must catch).
	VerifierSeed int64

	// AllowKeySharing relaxes the launch policy's NoKeySharing bit so the
	// guest can donate its encryption key to warm-started clones (paper
	// §6.2/§7). The relaxed policy is visible in the measurement. The
	// QEMU/OVMF flow never relaxes it.
	AllowKeySharing bool

	// Attestor, when set, runs remote attestation after init.
	Attestor Attestor
}

// Resolved is c with every default filled in: the launch Boot runs and
// MeasureConfig describes.
func (c Config) Resolved() Config {
	c.fillDefaults()
	return c
}

func (c *Config) fillDefaults() {
	if c.Cmdline == "" {
		c.Cmdline = c.Preset.Cmdline
	}
	if c.VCPUs == 0 {
		c.VCPUs = 1
	}
	if c.MemSize == 0 {
		c.MemSize = 256 << 20
	}
	if c.Codec == "" {
		c.Codec = bzimage.CodecLZ4
	}
	if c.VerifierSeed == 0 {
		c.VerifierSeed = 1
	}
}

// Result is one completed boot.
type Result struct {
	Timeline     *trace.Timeline
	Breakdown    trace.Breakdown
	Report       *linux.BootReport
	Machine      *kvm.Machine
	LaunchDigest [32]byte
}

// Boot runs one boot of cfg on its scheme's monitor to init (plus
// attestation when configured) on the calling simulation process. A launch
// no scheme runs is refused before any machine exists.
func Boot(proc *sim.Proc, host *kvm.Host, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}

	// The machine, annotated with its monitor, scheme and level, given its
	// devices, once the VMM process has started.
	m := host.NewMachine(proc, cfg.MemSize, cfg.Level)
	m.Timeline.Annotate("vmm", cfg.Scheme.monitor())
	m.Timeline.Annotate("scheme", cfg.Scheme.String())
	m.Timeline.Annotate("level", cfg.Level.String())
	if cfg.Scheme == SchemeSEVeriFastBz {
		m.Timeline.Annotate("codec", string(cfg.Codec))
	}
	attachDevices(m, cfg.Preset)
	if cfg.Scheme == SchemeQEMUOVMF {
		proc.Sleep(host.Model.QEMUProcessStart)
	} else {
		proc.Sleep(host.Model.VMMProcessStart)
	}

	var (
		res *Result
		err error
	)
	switch cfg.Scheme {
	case SchemeStock:
		res, err = bootStock(proc, host, m, cfg)
	case SchemeQEMUOVMF:
		res, err = bootQEMU(proc, host, m, cfg)
	default:
		res, err = bootSEV(proc, host, m, cfg)
	}
	if err != nil {
		return nil, err
	}

	// Remote attestation when configured, then the breakdown and the
	// closed timeline.
	if cfg.Attestor != nil {
		m.Timeline.Begin("attest", proc.Now())
		m.DebugEvent(proc, sev.EvAttestStart)
		if err := cfg.Attestor.Attest(proc, m); err != nil {
			return nil, fmt.Errorf("%s: attestation: %w", cfg.Scheme.monitor(), err)
		}
		m.DebugEvent(proc, sev.EvAttestDone)
		m.Timeline.End("attest", proc.Now())
	}
	res.Breakdown = m.Timeline.Breakdown()
	m.Timeline.Close(proc.Now())
	return res, nil
}

// bootStock is the unmodified Firecracker path: direct boot of an
// uncompressed vmlinux, no firmware, no verifier (paper §2.1).
func bootStock(proc *sim.Proc, host *kvm.Host, m *kvm.Machine, cfg Config) (*Result, error) {
	model := host.Model

	// Load each ELF segment to the location it will run (§2.1 step 1).
	img, err := parseVMLinux(cfg.Artifacts)
	if err != nil {
		return nil, err
	}
	loaded := 0
	for _, seg := range img.segments {
		if len(seg.data) == 0 {
			continue
		}
		if err := m.Mem.HostWriteAliased(seg.vaddr, seg.data); err != nil {
			return nil, fmt.Errorf("firecracker: loading segment: %w", err)
		}
		loaded += len(seg.data)
	}
	proc.Sleep(model.VMMLoad(loaded))

	// Boot structures (§2.1 step 2) and the initrd, all plain text. The
	// initrd is interned before it is staged, as bootSEV interns it, so its
	// pages carry provenance and the kernel unpacks it by reference, once
	// per initrd, instead of reading a copy out of the guest every boot.
	artifact.Intern(cfg.Initrd)
	if err := writeBootStructures(m, cfg, len(cfg.Initrd)); err != nil {
		return nil, err
	}
	if len(cfg.Initrd) > 0 {
		if err := m.Mem.HostWriteAliased(measure.GPAInitrd, cfg.Initrd); err != nil {
			return nil, err
		}
		proc.Sleep(model.VMMLoad(len(cfg.Initrd)))
	}
	proc.Sleep(model.VMMSetupMisc)

	// Enter the guest at the kernel's 64-bit entry point (§2.1 step 3).
	m.DebugEvent(proc, sev.EvGuestEntry)
	handoff := &verifier.Handoff{
		Kind:       verifier.KindVmlinux,
		Entry:      img.entry,
		InitrdGPA:  measure.GPAInitrd,
		InitrdSize: len(cfg.Initrd),
	}
	rep, err := linux.Boot(proc, m, handoff, cfg.Preset)
	if err != nil {
		return nil, err
	}
	return &Result{Timeline: m.Timeline, Report: rep, Machine: m}, nil
}

// bootSEV is the SEVeriFast path (Fig. 6).
func bootSEV(proc *sim.Proc, host *kvm.Host, m *kvm.Machine, cfg Config) (*Result, error) {
	if cfg.Plan != nil && cfg.Hashes == nil {
		return nil, fmt.Errorf("firecracker: precomputed plan without component hashes")
	}
	model := host.Model

	// Select the kernel image and the staging strategy.
	kernelImage, kind, err := cfg.KernelImage()
	if err != nil {
		return nil, err
	}

	// The kernel image and initrd are interned as shared artifacts before
	// anything reads them: the in-band hash below, the staging writes and
	// every later hash over the staged ranges (in-guest verification) then
	// meet in one per-artifact digest memo, across all boots of the image.
	artifact.Intern(kernelImage)
	artifact.Intern(cfg.Initrd)

	// Component hashes: out-of-band (free at boot time) or in-band.
	if cfg.Hashes == nil {
		m.Timeline.Begin("hash.components", proc.Now())
		hashes := measure.HashComponents(kernelImage, cfg.Initrd, cfg.Cmdline)
		cfg.Hashes = &hashes
		proc.Sleep(model.Hash(len(kernelImage)) + model.Hash(len(cfg.Initrd)))
		m.Timeline.End("hash.components", proc.Now())
	}

	regions := cfg.Plan
	if regions == nil {
		mc, err := cfg.MeasureConfig()
		if err != nil {
			return nil, err
		}
		if regions, err = measure.Plan(mc); err != nil {
			return nil, err
		}
	}

	m.Timeline.Begin("sev.host-prep", proc.Now())
	m.PrepSEVHost(proc)
	m.Timeline.End("sev.host-prep", proc.Now())

	// Stage the measured-direct-boot components in shared memory: the
	// pages alias the interned copies with provenance.
	m.Timeline.Begin("vmm.stage", proc.Now())
	in := verifier.Inputs{
		Kind:                   kind,
		InitrdStageGPA:         measure.GPAStageB,
		InitrdSize:             len(cfg.Initrd),
		InitrdDstGPA:           measure.GPAInitrd,
		ScratchGPA:             measure.GPAScratch,
		PageTablesPreEncrypted: cfg.PreEncryptPageTables,
	}
	switch kind {
	case verifier.KindBzImage:
		if err := m.Mem.HostWriteAliased(measure.GPAStageA, kernelImage); err != nil {
			return nil, err
		}
		in.StageGPA = measure.GPAStageA
		in.KernelSize = len(kernelImage)
		in.KernelDstGPA = measure.GPABzTarget
	case verifier.KindVmlinux:
		chunks, err := verifier.BuildChunks(kernelImage, measure.GPAStageA)
		if err != nil {
			return nil, err
		}
		if err := m.Mem.HostWriteAliased(measure.GPAStageA, kernelImage); err != nil {
			return nil, err
		}
		in.Chunks = chunks
	}
	proc.Sleep(model.VMMLoad(len(kernelImage)))
	if len(cfg.Initrd) > 0 {
		if err := m.Mem.HostWriteAliased(measure.GPAStageB, cfg.Initrd); err != nil {
			return nil, err
		}
		proc.Sleep(model.VMMLoad(len(cfg.Initrd)))
	}
	proc.Sleep(model.VMMSetupMisc)
	m.Timeline.End("vmm.stage", proc.Now())

	digest, err := preEncrypt(proc, m, cfg, regions)
	if err != nil {
		return nil, err
	}

	// Enter the guest at the boot verifier (the root of trust).
	m.DebugEvent(proc, sev.EvGuestEntry)
	handoff, err := verifier.Run(proc, m, in)
	if err != nil {
		return nil, err
	}
	rep, err := linux.Boot(proc, m, handoff, cfg.Preset)
	if err != nil {
		return nil, err
	}
	return &Result{
		Timeline:     m.Timeline,
		Report:       rep,
		Machine:      m,
		LaunchDigest: digest,
	}, nil
}

// preEncrypt is the launch flow of either monitor (Fig. 1): LAUNCH_START
// under cfg's policy, LAUNCH_UPDATE_DATA over the plan's regions,
// LAUNCH_FINISH. This is the "Pre-encryption" column of Fig. 10. It
// returns the launch digest.
func preEncrypt(proc *sim.Proc, m *kvm.Machine, cfg Config, regions []measure.Region) ([32]byte, error) {
	m.Timeline.Begin("preenc", proc.Now())
	if err := m.StartLaunch(proc, cfg.Policy()); err != nil {
		return [32]byte{}, err
	}
	m.Timeline.Annotate("asid", fmt.Sprintf("%d", m.Launch.ASID()))
	// Regions are staged through an update batch: PSP charges and page
	// flips happen per region at the same virtual-time points as before,
	// while the content hashes run across the host worker pool and fold
	// serially at Close — same digest, less host wall-clock.
	batch := m.Launch.NewUpdateBatch()
	for _, r := range regions {
		var err error
		if r.Art != nil {
			// Zero-copy: alias the plan's staging blob into the guest pages
			// with provenance, so the deferred content hash is a memo hit on
			// every boot of an already-measured image.
			err = batch.StageArtifact(proc, r.GPA, r.Art, r.ArtOff, len(r.Data), r.Type)
		} else {
			err = batch.Stage(proc, r.GPA, r.Data, r.Type)
		}
		if err != nil {
			return [32]byte{}, fmt.Errorf("%s: measuring %s: %w", cfg.Scheme.monitor(), r.Name, err)
		}
	}
	if err := batch.Close(); err != nil {
		return [32]byte{}, fmt.Errorf("%s: folding launch digest: %w", cfg.Scheme.monitor(), err)
	}
	digest, err := m.Launch.LaunchFinish(proc)
	if err != nil {
		return [32]byte{}, err
	}
	m.Timeline.End("preenc", proc.Now())
	return digest, nil
}

// check refuses a launch without artifacts and the scheme/level pairs no
// launch exists for. Boot and the digest tools share it, so the digest
// tool refuses exactly what the VMM refuses, with the VMM's error.
func (c Config) check() error {
	switch {
	case c.Artifacts == nil:
		return fmt.Errorf("%s: no kernel artifacts", c.Scheme.monitor())
	case c.Scheme == SchemeStock && c.Level != sev.None:
		return fmt.Errorf("firecracker: stock scheme cannot boot a %v guest", c.Level)
	case c.Scheme == SchemeQEMUOVMF && !c.Level.Encrypted():
		return fmt.Errorf("qemu: this flow models SEV boots; use firecracker's stock path for %v", c.Level)
	case c.Scheme != SchemeStock && !c.Level.Encrypted():
		return fmt.Errorf("firecracker: SEVeriFast scheme requires an SEV level, got %v", c.Level)
	}
	return nil
}

// KernelImage returns the kernel bytes the config's scheme and codec stage
// for measured direct boot — the image the §4.3 kernel hash covers — and
// how the verifier loads it. The QEMU/OVMF flow always stages the LZ4
// bzImage over fw_cfg. The stock scheme stages no measured kernel and is
// refused.
func (c Config) KernelImage() ([]byte, verifier.KernelKind, error) {
	c.fillDefaults()
	var (
		img  []byte
		kind verifier.KernelKind
		err  error
	)
	switch c.Scheme {
	case SchemeSEVeriFastBz:
		kind = verifier.KindBzImage
		switch c.Codec {
		case bzimage.CodecLZ4:
			img = c.Artifacts.BzImageLZ4
		case bzimage.CodecGzip:
			img, err = c.Artifacts.BzImageGzip()
		default:
			img, err = bzimage.Build(c.Artifacts.VMLinux, c.Codec, c.Preset.Seed)
		}
		if err != nil {
			return nil, 0, err
		}
	case SchemeSEVeriFastVmlinux:
		img, kind = c.Artifacts.VMLinux, verifier.KindVmlinux
	case SchemeQEMUOVMF:
		img, kind = c.Artifacts.BzImageLZ4, verifier.KindBzImage
	default:
		return nil, 0, fmt.Errorf("firecracker: scheme %v has no SEV kernel", c.Scheme)
	}
	// An artifact bundle with the selected image missing would otherwise
	// "boot" a zero-byte kernel and fail much later inside the guest.
	if len(img) == 0 {
		return nil, 0, fmt.Errorf("firecracker: artifacts carry no kernel image for scheme %v", c.Scheme)
	}
	return img, kind, nil
}

// ComponentHashes computes the §4.3 out-of-band hash file of the launch's
// own components: the kernel image it stages, its initrd and its cmdline.
// A launch Boot refuses has no hash file.
func (c Config) ComponentHashes() (measure.ComponentHashes, error) {
	c.fillDefaults()
	if err := c.check(); err != nil {
		return measure.ComponentHashes{}, err
	}
	kernel, _, err := c.KernelImage()
	if err != nil {
		return measure.ComponentHashes{}, err
	}
	// Interned first, as Boot interns them: this pass then fills the digest
	// memo the boot's in-guest verification reads, and a component is
	// hashed once per process, not once here and once there.
	artifact.Intern(kernel)
	artifact.Intern(c.Initrd)
	return measure.HashComponents(kernel, c.Initrd, c.Cmdline), nil
}

// MeasureConfig is the one translation of a Firecracker launch description
// into measure's input: Boot plans from it when no Plan is supplied and
// ExpectedDigest predicts from it, so the VMM and the digest tool cannot
// describe different launches, and a launch Boot refuses is refused here
// with Boot's error. measure does not model OVMF, so the QEMU/OVMF scheme
// is refused too. Hashes, when set, are an input of the launch and taken as
// given; nil hashes the launch's own components.
func (c Config) MeasureConfig() (measure.Config, error) {
	c.fillDefaults()
	if c.Scheme == SchemeQEMUOVMF {
		return measure.Config{}, fmt.Errorf("firecracker: measure does not model the OVMF launch of scheme %v", c.Scheme)
	}
	if err := c.check(); err != nil {
		return measure.Config{}, err
	}
	// The stock scheme is never measured: selecting its kernel image (under
	// ComponentHashes) is what refuses it, whether or not hashes came along.
	if c.Hashes == nil || c.Scheme == SchemeStock {
		h, err := c.ComponentHashes()
		if err != nil {
			return measure.Config{}, err
		}
		c.Hashes = &h
	}
	return measure.Config{
		Verifier:             verifier.Image(c.VerifierSeed),
		Hashes:               *c.Hashes,
		Cmdline:              c.Cmdline,
		VCPUs:                c.VCPUs,
		MemSize:              c.MemSize,
		Level:                c.Level,
		Policy:               c.Policy(),
		PreEncryptPageTables: c.PreEncryptPageTables,
	}, nil
}

// ExpectedDigest is the §4.2 tool for this launch: the digest the PSP must
// report, predicted host-side — by measure from MeasureConfig, or for
// QEMU/OVMF by folding the firmware's plan over the launch's hash file.
func (c Config) ExpectedDigest() ([32]byte, error) {
	if c.Scheme == SchemeQEMUOVMF {
		hashes, err := c.ComponentHashes()
		if err != nil {
			return [32]byte{}, err
		}
		return measure.FoldRegions(psp.InitialDigest(c.Policy(), c.Level), ovmf.PlanRegions(ovmfSeed, c.Level, hashes)), nil
	}
	mc, err := c.MeasureConfig()
	if err != nil {
		return [32]byte{}, err
	}
	return measure.ExpectedDigest(mc)
}

// Policy is the launch's policy: LaunchPolicy of its level, with key
// sharing relaxed only where the monitor offers it (not QEMU/OVMF).
func (c Config) Policy() sev.Policy {
	return LaunchPolicy(c.Level, c.AllowKeySharing && c.Scheme != SchemeQEMUOVMF)
}

// LaunchPolicy returns the policy a launch at the given level uses: the
// strongest the level supports, with NoKeySharing relaxed when the guest
// donates its key to warm-started clones. The policy is folded into the
// launch digest, so every launcher (Boot, warm restores) and
// every planner (the measured-image cache, the digest methods) calls this.
func LaunchPolicy(level sev.Level, allowKeySharing bool) sev.Policy {
	p := sev.DefaultPolicy()
	if level < sev.ES {
		p.ESRequired = false
	}
	if allowKeySharing {
		p.NoKeySharing = false
	}
	return p
}

// writeBootStructures fills guest memory with the plain-text structures a
// non-SEV direct boot needs (zero page, cmdline, mptable).
func writeBootStructures(m *kvm.Machine, cfg Config, initrdSize int) error {
	zp, err := bootparams.Build(bootparams.Params{
		CmdlinePtr:   measure.GPACmdline,
		CmdlineSize:  uint32(len(cfg.Cmdline)),
		RamdiskImage: measure.GPAInitrd,
		RamdiskSize:  uint32(initrdSize),
		E820:         bootparams.StandardE820(cfg.MemSize),
	})
	if err != nil {
		return err
	}
	if err := m.Mem.HostWrite(measure.GPAZeroPage, zp); err != nil {
		return err
	}
	if err := m.Mem.HostWrite(measure.GPACmdline, []byte(cfg.Cmdline)); err != nil {
		return err
	}
	return m.Mem.HostWrite(measure.GPAMPTable, mptable.Build(cfg.VCPUs, measure.GPAMPTable))
}

// vmImage is a lightweight view of the vmlinux for direct loading.
type vmImage struct {
	entry    uint64
	segments []vmSegment
}

type vmSegment struct {
	vaddr uint64
	data  []byte
}

func parseVMLinux(art *kernelgen.Artifacts) (*vmImage, error) {
	regions, err := verifier.BuildChunks(art.VMLinux, 0)
	if err != nil {
		return nil, err
	}
	img := &vmImage{entry: art.Entry}
	for _, c := range regions {
		if c.DestGPA == 0 {
			continue
		}
		// BuildChunks validates ranges against the file, but keep the
		// bound explicit here: a corrupt chunk list must surface as an
		// error, not a slice panic in the VMM.
		end := c.FileOff + uint64(c.Size)
		if c.Size < 0 || end < c.FileOff || end > uint64(len(art.VMLinux)) {
			return nil, fmt.Errorf("firecracker: chunk [%#x,+%d) outside vmlinux (%d bytes)",
				c.FileOff, c.Size, len(art.VMLinux))
		}
		img.segments = append(img.segments, vmSegment{
			vaddr: c.DestGPA,
			data:  art.VMLinux[c.FileOff:end],
		})
	}
	return img, nil
}

// rootfsImage is the deterministic block-device image every microVM gets:
// sector 0 carries the magic the guest checks when mounting /dev/vda.
// The image is built once and shared: the block backend only ever copies
// sectors out of it, so every machine can serve the same canonical bytes.
func rootfsImage() []byte {
	rootfsOnce.Do(func() {
		img := make([]byte, 128*512)
		copy(img, "SVFROOT1")
		for i := 512; i < len(img); i++ {
			img[i] = byte(i)
		}
		rootfsImg = img
	})
	return rootfsImg
}

var (
	rootfsOnce sync.Once
	rootfsImg  []byte
)

// attachDevices gives the machine its virtio-mmio devices: a block device
// always, a network device when the kernel config supports it (§6.1:
// CONFIG_VIRTIO_BLK and CONFIG_VIRTIO_NET).
func attachDevices(m *kvm.Machine, preset kernelgen.Preset) {
	m.Devices = append(m.Devices,
		virtio.NewDevice(virtio.IDBlk, virtio.FeatBlkFlush, &virtio.BlkBackend{Image: rootfsImage()}))
	if preset.Networking {
		m.Devices = append(m.Devices,
			virtio.NewDevice(virtio.IDNet, virtio.FeatNetMac, virtio.NetBackend{}))
	}
}
