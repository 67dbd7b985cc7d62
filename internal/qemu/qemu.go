// Package qemu models the mainstream QEMU/OVMF flow for booting SEV
// guests (paper §2.5): full OVMF pre-encryption, UEFI Platform
// Initialization, and measured direct boot added to bypass GRUB. It is
// the baseline SEVeriFast is evaluated against in Figs. 9 and 10.
package qemu

import (
	"fmt"
	"sync"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/linux"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/ovmf"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/verifier"
	"github.com/severifast/severifast/internal/virtio"

	"github.com/severifast/severifast/internal/firecracker"
)

// cmdlineCache holds the canonical interned byte form of each distinct
// cmdline string (a handful per fleet), so staging writes alias one
// immutable buffer with provenance instead of copying fresh bytes every
// boot.
var cmdlineCache sync.Map // string -> []byte

func cmdlineBytes(s string) []byte {
	if v, ok := cmdlineCache.Load(s); ok {
		return v.([]byte)
	}
	b := []byte(s)
	artifact.Intern(b)
	v, _ := cmdlineCache.LoadOrStore(s, b)
	return v.([]byte)
}

// Config describes one QEMU/OVMF SEV boot. One guest owner serves either
// monitor, so Attestor is firecracker's.
type Config struct {
	Preset    kernelgen.Preset
	Artifacts *kernelgen.Artifacts
	Initrd    []byte
	Cmdline   string
	VCPUs     int
	MemSize   uint64
	Level     sev.Level
	Attestor  firecracker.Attestor
}

// ovmfSeed selects the one OVMF build the flow boots.
const ovmfSeed = 1

// FromFirecracker is the launch description c as this monitor takes it:
// the fields the two monitors share. The facade and the experiments
// describe every launch as a firecracker.Config and convert here.
func FromFirecracker(c firecracker.Config) Config {
	return Config{
		Preset:    c.Preset,
		Artifacts: c.Artifacts,
		Initrd:    c.Initrd,
		Cmdline:   c.Cmdline,
		VCPUs:     c.VCPUs,
		MemSize:   c.MemSize,
		Level:     c.Level,
		Attestor:  c.Attestor,
	}
}

// check refuses what the flow cannot launch. Boot and ExpectedDigest share
// it, so no digest is predicted for a launch that cannot happen.
func (c Config) check() error {
	if c.Artifacts == nil {
		return fmt.Errorf("qemu: no kernel artifacts")
	}
	if !c.Level.Encrypted() {
		return fmt.Errorf("qemu: this flow models SEV boots; use firecracker's stock path for %v", c.Level)
	}
	return nil
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
}

// Boot runs one QEMU/OVMF SEV boot to init (plus attestation when
// configured) on the calling simulation process. The monitors report the
// same facts, so the result is firecracker's.
func Boot(proc *sim.Proc, host *kvm.Host, cfg Config) (*firecracker.Result, error) {
	cfg.fillDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	model := host.Model

	m := host.NewMachine(proc, cfg.MemSize, cfg.Level)
	m.Timeline.Annotate("vmm", "qemu")
	m.Timeline.Annotate("scheme", "qemu-ovmf")
	m.Timeline.Annotate("level", cfg.Level.String())
	attachDevices(m, cfg.Preset)
	proc.Sleep(model.QEMUProcessStart)

	// QEMU's measured direct boot hashes components at launch, on the
	// critical path (no out-of-band hash file).
	m.Timeline.Begin("hash.components", proc.Now())
	kernelImage := cfg.kernelImage()
	hashes := cfg.ComponentHashes()
	proc.Sleep(model.Hash(len(kernelImage)) + model.Hash(len(cfg.Initrd)))
	m.Timeline.End("hash.components", proc.Now())

	// Stage components via fw_cfg (shared memory), plus the plain-text
	// boot structures OVMF consumes to build boot_params. Interning
	// first lets the staged ranges alias the canonical artifact copy.
	artifact.Intern(kernelImage)
	artifact.Intern(cfg.Initrd)
	m.Timeline.Begin("vmm.stage", proc.Now())
	if err := m.Mem.HostWriteAliased(measure.GPAStageA, kernelImage); err != nil {
		return nil, err
	}
	proc.Sleep(model.VMMLoad(len(kernelImage)))
	if len(cfg.Initrd) > 0 {
		if err := m.Mem.HostWriteAliased(measure.GPAStageB, cfg.Initrd); err != nil {
			return nil, err
		}
		proc.Sleep(model.VMMLoad(len(cfg.Initrd)))
	}
	// The cmdline travels over fw_cfg too: staged shared, verified in the
	// guest against the pre-encrypted hash page. The canonical bytes are
	// cached per cmdline string so every boot aliases one interned buffer
	// instead of materializing a fresh copy.
	cmdlineStage := uint64(measure.GPAStageB) + uint64(len(cfg.Initrd)+4096)&^4095
	if err := m.Mem.HostWriteAliased(cmdlineStage, cmdlineBytes(cfg.Cmdline)); err != nil {
		return nil, err
	}
	proc.Sleep(model.VMMSetupMisc)
	m.Timeline.End("vmm.stage", proc.Now())

	m.Timeline.Begin("sev.host-prep", proc.Now())
	m.PrepSEVHost(proc)
	m.Timeline.End("sev.host-prep", proc.Now())

	// Pre-encryption: the whole firmware volume + varstore + hash page
	// (+ SNP pages + VMSA) — Fig. 10's ~288 ms column.
	policy := firecracker.LaunchPolicy(cfg.Level, false)
	m.Timeline.Begin("preenc", proc.Now())
	if err := m.StartLaunch(proc, policy); err != nil {
		return nil, err
	}
	m.Timeline.Annotate("asid", fmt.Sprintf("%d", m.Launch.ASID()))
	batch := m.Launch.NewUpdateBatch()
	for _, r := range ovmf.PlanRegions(ovmfSeed, cfg.Level, hashes) {
		var err error
		if r.Art != nil {
			err = batch.StageArtifact(proc, r.GPA, r.Art, r.ArtOff, len(r.Data), r.Type)
		} else {
			err = batch.Stage(proc, r.GPA, r.Data, r.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("qemu: measuring %s: %w", r.Name, err)
		}
	}
	if err := batch.Close(); err != nil {
		return nil, fmt.Errorf("qemu: folding launch digest: %w", err)
	}
	digest, err := m.Launch.LaunchFinish(proc)
	if err != nil {
		return nil, err
	}
	m.Timeline.End("preenc", proc.Now())

	// Enter the guest at the OVMF reset vector.
	m.DebugEvent(proc, sev.EvGuestEntry)
	in := verifier.Inputs{
		Kind:                verifier.KindBzImage,
		StageGPA:            measure.GPAStageA,
		KernelSize:          len(kernelImage),
		KernelDstGPA:        measure.GPABzTarget,
		InitrdStageGPA:      measure.GPAStageB,
		InitrdSize:          len(cfg.Initrd),
		InitrdDstGPA:        measure.GPAInitrd,
		ScratchGPA:          measure.GPAScratch,
		CmdlineStageGPA:     cmdlineStage,
		CmdlineSize:         len(cfg.Cmdline),
		GenerateBootStructs: true,
		VCPUs:               cfg.VCPUs,
	}
	handoff, err := ovmf.Run(proc, m, in)
	if err != nil {
		return nil, err
	}
	rep, err := linux.Boot(proc, m, handoff, cfg.Preset)
	if err != nil {
		return nil, err
	}

	if cfg.Attestor != nil && cfg.Preset.Networking {
		m.Timeline.Begin("attest", proc.Now())
		m.DebugEvent(proc, sev.EvAttestStart)
		if err := cfg.Attestor.Attest(proc, m); err != nil {
			return nil, fmt.Errorf("qemu: attestation: %w", err)
		}
		m.DebugEvent(proc, sev.EvAttestDone)
		m.Timeline.End("attest", proc.Now())
	}
	res := &firecracker.Result{
		Timeline:     m.Timeline,
		Report:       rep,
		Machine:      m,
		LaunchDigest: digest,
	}
	res.Breakdown = m.Timeline.Breakdown()
	m.Timeline.Close(proc.Now())
	return res, nil
}

// kernelImage is the kernel the QEMU flow stages over fw_cfg: always the
// LZ4 bzImage.
func (c Config) kernelImage() []byte { return c.Artifacts.BzImageLZ4 }

// ComponentHashes hashes what the QEMU flow stages and verifies in the
// guest: its kernel image, the initrd and the cmdline.
func (c Config) ComponentHashes() measure.ComponentHashes {
	c.fillDefaults()
	return measure.HashComponents(c.kernelImage(), c.Initrd, c.Cmdline)
}

// ExpectedDigest is the digest a correct launch of this config reports —
// the package-level tool applied to the config's own firmware build, level
// and components, so a guest owner and Boot describe the same launch.
func (c Config) ExpectedDigest() ([32]byte, error) {
	c.fillDefaults()
	if err := c.check(); err != nil {
		return [32]byte{}, err
	}
	return ExpectedDigest(ovmfSeed, c.Level, c.ComponentHashes()), nil
}

// ExpectedDigest is the guest owner's digest tool for the QEMU flow.
func ExpectedDigest(seed int64, level sev.Level, hashes measure.ComponentHashes) [32]byte {
	d := psp.InitialDigest(firecracker.LaunchPolicy(level, false), level)
	for _, r := range ovmf.PlanRegions(seed, level, hashes) {
		d = psp.ExtendDigest(d, r.Type, r.GPA, r.Data)
	}
	return d
}

// attachDevices mirrors the firecracker monitor's device set.
func attachDevices(m *kvm.Machine, preset kernelgen.Preset) {
	m.Devices = append(m.Devices,
		virtio.NewDevice(virtio.IDBlk, virtio.FeatBlkFlush, &virtio.BlkBackend{Image: firecracker.RootfsImage()}))
	if preset.Networking {
		m.Devices = append(m.Devices,
			virtio.NewDevice(virtio.IDNet, virtio.FeatNetMac, virtio.NetBackend{}))
	}
}
