// Package ovmf models the EDK II Open Virtual Machine Firmware as used by
// the QEMU reference flow (paper §2.5, §3.1): a >1 MiB firmware volume
// that must be pre-encrypted in full, followed by the UEFI Platform
// Initialization phases (SEC, PEI, DXE, BDS) — redundant bootstrap for a
// microVM — and finally the small measured-direct-boot verifier stage that
// is the only part SEV actually needs (Fig. 3).
package ovmf

import (
	"fmt"

	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/verifier"
)

// Artifact sizes: the paper calls 1 MiB the smallest supported OVMF build;
// the varstore (OVMF_VARS) rides along and is measured too.
const (
	CodeSize     = 1 << 20
	VarStoreSize = 128 << 10
)

// Guest-physical placement, high in the 256 MiB guest.
const (
	GPACode     = 0x0FC00000
	GPAVarStore = GPACode + CodeSize
	gpaSecrets  = 0x3000 // SNP secrets page
	gpaCPUID    = 0x4000 // SNP CPUID page
)

// Volume returns the firmware volume bytes (deterministic stand-in for a
// compiled OVMF.fd).
//
// Volume and VarStore return kernelgen.BuildBinary's bytes: generated once
// per seed per process, shared by every caller and interned with their
// digest memo filled, so a plan points at them instead of copying them.
// Never mutate them: a caller that wants tampered firmware copies it
// first.
func Volume(seed int64) []byte { return kernelgen.BuildBinary(seed^0x0FF, CodeSize) }

// VarStore returns the NVRAM varstore bytes.
func VarStore(seed int64) []byte { return kernelgen.BuildBinary(seed^0xFAB, VarStoreSize) }

// PlanRegions returns OVMF's pre-encryption plan: everything the QEMU flow
// measures before guest entry. Compare measure.Plan: the difference in
// byte count is the whole Fig. 10 pre-encryption story.
//
// The firmware volume and varstore regions point at the shared firmware
// bytes, and only the per-launch pages (hash page, SNP pages, VMSA) are
// copied into the plan's own staging blob: a plan for new component hashes
// builds about 16 KiB and hashes nothing of the firmware. Callers must
// treat the returned regions as read-only.
func PlanRegions(seed int64, level sev.Level, hashes measure.ComponentHashes) []measure.Region {
	regions := []measure.Region{
		{Name: "ovmf-code", GPA: GPACode, Data: Volume(seed), Type: sev.PageNormal},
		{Name: "ovmf-vars", GPA: GPAVarStore, Data: VarStore(seed), Type: sev.PageNormal},
		{Name: "hashes", GPA: measure.GPAHashPage, Data: hashes.HashPage(), Type: sev.PageNormal},
	}
	if level.HasRMP() {
		regions = append(regions,
			measure.Region{Name: "secrets", GPA: gpaSecrets, Data: make([]byte, 4096), Type: sev.PageSecrets},
			measure.Region{Name: "cpuid", GPA: gpaCPUID, Data: make([]byte, 4096), Type: sev.PageCPUID},
		)
	}
	if level >= sev.ES {
		regions = append(regions, measure.Region{
			Name: "vmsa", GPA: measure.GPAVMSA, Data: measure.VMSAPage(GPACode), Type: sev.PageVMSA,
		})
	}
	return measure.BindStagingBlob(regions)
}

// Run executes the firmware in the guest: the four PI phases, then the
// embedded boot verifier performing measured direct boot over the staged
// components. It returns the verifier handoff for the kernel stage.
func Run(proc *sim.Proc, m *kvm.Machine, in verifier.Inputs) (*verifier.Handoff, error) {
	model := m.Host.Model

	m.Timeline.Begin("firmware", proc.Now())
	// SEC: reset vector, cache-as-RAM, decompress PEI core.
	m.DebugEvent(proc, sev.EvFirmwareSEC)
	proc.Sleep(model.OVMFPhaseSEC)
	// PEI: memory init, platform PEIMs, hand-off blocks.
	m.DebugEvent(proc, sev.EvFirmwarePEI)
	proc.Sleep(model.OVMFPhasePEI)
	// DXE: driver dispatch — the dominant, microVM-redundant phase.
	m.DebugEvent(proc, sev.EvFirmwareDXE)
	proc.Sleep(model.OVMFPhaseDXE)
	// BDS: boot device selection.
	m.DebugEvent(proc, sev.EvFirmwareBDS)
	proc.Sleep(model.OVMFPhaseBDS)
	m.Timeline.End("firmware", proc.Now())

	// The only SEV-necessary part: boot verification (Fig. 3's thin
	// "Boot Verifier" slice). OVMF validates guest memory first the same
	// way the SEVeriFast verifier does.
	h, err := verifier.Run(proc, m, in)
	if err != nil {
		return nil, fmt.Errorf("ovmf: %w", err)
	}
	return h, nil
}
