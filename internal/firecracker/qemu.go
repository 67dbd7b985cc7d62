package firecracker

import (
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/linux"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/ovmf"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/verifier"
)

// ovmfSeed selects the one OVMF build the QEMU/OVMF flow boots.
const ovmfSeed = 1

// bootQEMU is the mainstream QEMU/OVMF flow for SEV guests (paper §2.5):
// full OVMF pre-encryption, UEFI Platform Initialization, and measured
// direct boot added to bypass GRUB. The launch policy never relaxes key
// sharing.
func bootQEMU(proc *sim.Proc, host *kvm.Host, m *kvm.Machine, cfg Config) (*Result, error) {
	kernelImage, _, err := cfg.KernelImage()
	if err != nil {
		return nil, err
	}
	hashes, err := cfg.ComponentHashes()
	if err != nil {
		return nil, err
	}
	model := host.Model

	// QEMU's measured direct boot hashes components at launch, on the
	// critical path (no out-of-band hash file).
	m.Timeline.Begin("hash.components", proc.Now())
	proc.Sleep(model.Hash(len(kernelImage)) + model.Hash(len(cfg.Initrd)))
	m.Timeline.End("hash.components", proc.Now())

	// Stage components via fw_cfg (shared memory), plus the plain-text
	// boot structures OVMF consumes to build boot_params. ComponentHashes
	// interned both first, so the staged ranges alias the canonical
	// artifact copy.
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
	// guest against the pre-encrypted hash page. Every boot of one cmdline
	// aliases the one interned buffer kernelgen keeps for it instead of
	// materializing a fresh copy.
	cmdlineStage := uint64(measure.GPAStageB) + uint64(len(cfg.Initrd)+4096)&^4095
	if err := m.Mem.HostWriteAliased(cmdlineStage, kernelgen.CmdlineBytes(cfg.Preset.Cmdline)); err != nil {
		return nil, err
	}
	proc.Sleep(model.VMMSetupMisc)
	m.Timeline.End("vmm.stage", proc.Now())

	m.Timeline.Begin("sev.host-prep", proc.Now())
	m.PrepSEVHost(proc)
	m.Timeline.End("sev.host-prep", proc.Now())

	// Pre-encryption: the whole firmware volume + varstore + hash page
	// (+ SNP pages + VMSA) — Fig. 10's ~288 ms column.
	digest, err := preEncrypt(proc, m, cfg, ovmf.PlanRegions(ovmfSeed, cfg.Level, hashes))
	if err != nil {
		return nil, err
	}

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
		CmdlineSize:         len(cfg.Preset.Cmdline),
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
	return &Result{
		Timeline:     m.Timeline,
		Report:       rep,
		Machine:      m,
		LaunchDigest: digest,
	}, nil
}
