// Package qemu keeps the guest owner's digest tool for the QEMU/OVMF flow
// (paper §2.5) in the form the benchmark calls it. The flow itself boots
// and is measured as firecracker.SchemeQEMUOVMF.
package qemu

import (
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/ovmf"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
)

// ExpectedDigest is the digest a QEMU/OVMF launch of OVMF build seed at
// level with the given component hashes reports: the firmware's plan
// folded under the flow's policy.
func ExpectedDigest(seed int64, level sev.Level, hashes measure.ComponentHashes) [32]byte {
	return measure.FoldRegions(psp.InitialDigest(firecracker.LaunchPolicy(level, false), level), ovmf.PlanRegions(seed, level, hashes))
}
