// Package qemu models the mainstream QEMU/OVMF flow for booting SEV
// guests (paper §2.5): full OVMF pre-encryption, UEFI Platform
// Initialization, and measured direct boot added to bypass GRUB. It is
// the baseline SEVeriFast is evaluated against in Figs. 9 and 10.
package qemu

import (
	"fmt"
	"sync"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/linux"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/ovmf"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/verifier"

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

// ovmfSeed selects the one OVMF build the flow boots.
const ovmfSeed = 1

// check refuses another monitor's scheme and a launch without artifacts;
// ComponentHashes refuses a level without SEV. Boot and LaunchDigest ask
// both, so no digest is predicted for a launch that cannot happen.
func check(c firecracker.Config) error {
	if c.Scheme != firecracker.SchemeQEMUOVMF {
		return fmt.Errorf("qemu: scheme %v launches on Firecracker, not QEMU/OVMF", c.Scheme)
	}
	if c.Artifacts == nil {
		return fmt.Errorf("qemu: no kernel artifacts")
	}
	return nil
}

// Boot runs one QEMU/OVMF SEV boot of cfg, whose scheme must be
// firecracker.SchemeQEMUOVMF, to init (plus attestation when configured) on
// the calling simulation process. The monitors report the same facts and
// share how a boot starts and finishes, so the result is firecracker's.
// The launch policy never relaxes key sharing.
func Boot(proc *sim.Proc, host *kvm.Host, cfg firecracker.Config) (*firecracker.Result, error) {
	cfg = cfg.Resolved()
	if err := check(cfg); err != nil {
		return nil, err
	}
	kernelImage, _, err := cfg.KernelImage()
	if err != nil {
		return nil, err
	}
	hashes, err := cfg.ComponentHashes()
	if err != nil {
		return nil, err
	}
	model := host.Model
	m := firecracker.Start(proc, host, cfg)

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
	digest, err := firecracker.PreEncrypt(proc, m, cfg, ovmf.PlanRegions(ovmfSeed, cfg.Level, hashes))
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
	return firecracker.Finish(proc, cfg, &firecracker.Result{
		Timeline:     m.Timeline,
		Report:       rep,
		Machine:      m,
		LaunchDigest: digest,
	})
}

// LaunchDigest is the digest a correct launch of cfg reports — the
// package-level tool applied to the flow's own firmware build and the
// launch's level and component hashes, so a guest owner and Boot describe
// the same launch.
func LaunchDigest(cfg firecracker.Config) ([32]byte, error) {
	if err := check(cfg); err != nil {
		return [32]byte{}, err
	}
	hashes, err := cfg.ComponentHashes()
	if err != nil {
		return [32]byte{}, err
	}
	return ExpectedDigest(ovmfSeed, cfg.Level, hashes), nil
}

// ExpectedDigest is the guest owner's digest tool for the QEMU flow.
func ExpectedDigest(seed int64, level sev.Level, hashes measure.ComponentHashes) [32]byte {
	d := psp.InitialDigest(firecracker.LaunchPolicy(level, false), level)
	for _, r := range ovmf.PlanRegions(seed, level, hashes) {
		d = psp.ExtendDigest(d, r.Type, r.GPA, r.Data)
	}
	return d
}
