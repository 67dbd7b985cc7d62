package expt

import (
	"fmt"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
)

// MemoryFootprint reproduces §6.3: the extra per-guest memory SEV costs
// the VMM (~16 KiB), compared to the binary-size delta (~50 KiB, a
// constant of the modified monitor reported here for completeness).
func MemoryFootprint(opts Options) (*Table, error) {
	tab := &Table{
		Title:   "Memory footprint (paper §6.3)",
		Columns: []string{"metric", "value"},
	}
	out, err := bootOnce(costmodel.Default(), kernelgen.AWS(), opts.initrd(), schemeSEVeriFast, opts.Seed, false)
	if err != nil {
		return nil, err
	}
	stockOut, err := bootOnce(costmodel.Default(), kernelgen.AWS(), opts.initrd(), schemeStock, opts.Seed, false)
	if err != nil {
		return nil, err
	}
	sevMeta := out.Machine.Mem.SEVMetadataBytes()
	stockMeta := stockOut.Machine.Mem.SEVMetadataBytes()
	tab.AddRow("per-guest SEV metadata (SEVeriFast)", fmt.Sprintf("%d B", sevMeta))
	tab.AddRow("per-guest SEV metadata (stock FC)", fmt.Sprintf("%d B", stockMeta))
	tab.AddRow("delta", fmt.Sprintf("%d B (paper: ~16 KiB)", sevMeta-stockMeta))
	tab.AddRow("monitor binary growth", "~50 KiB (paper §6.3; constant of the port)")
	s := out.Machine.Mem.Stats()
	tab.AddRow("resident guest pages", fmt.Sprintf("%d (%d aliased, %d private)",
		s.ResidentPages, s.AliasedPages, s.PrivatePages))
	return tab, nil
}

// AblationOutOfBandHashing reproduces the §4.3 design point: in-band
// hashing (VMM hashes kernel+initrd at launch) vs the out-of-band hash
// file, per preset.
func AblationOutOfBandHashing(opts Options) (*Table, error) {
	tab := &Table{
		Title:   "Ablation: out-of-band vs in-band component hashing (paper §4.3)",
		Columns: []string{"kernel", "out-of-band total", "in-band total", "saved"},
	}
	for _, preset := range opts.presets() {
		oob, err := bootOnce(costmodel.Default(), preset, opts.initrd(), schemeSEVeriFast, opts.Seed, false)
		if err != nil {
			return nil, err
		}
		in, err := bootVariant(opts, preset, func(c *firecracker.Config, _ *kvm.Host) { c.Hashes = nil })
		if err != nil {
			return nil, err
		}
		tab.AddRow(preset.Name, ms(oob.Breakdown.Total), ms(in.Breakdown.Total), ms(in.Breakdown.Total-oob.Breakdown.Total))
	}
	return tab, nil
}

// AblationPreEncryptPageTables reproduces the Fig. 7 decision for page
// tables: verifier-generated (SEVeriFast) vs VMM-pre-encrypted.
func AblationPreEncryptPageTables(opts Options) (*Table, error) {
	tab := &Table{
		Title:   "Ablation: generate vs pre-encrypt page tables (paper Fig. 7)",
		Columns: []string{"kernel", "generate (total)", "pre-encrypt (total)", "preenc span generate", "preenc span pre-encrypt"},
	}
	for _, preset := range opts.presets() {
		gen, err := bootOnce(costmodel.Default(), preset, opts.initrd(), schemeSEVeriFast, opts.Seed, false)
		if err != nil {
			return nil, err
		}
		pre, err := bootVariant(opts, preset, func(c *firecracker.Config, _ *kvm.Host) { c.PreEncryptPageTables = true })
		if err != nil {
			return nil, err
		}
		tab.AddRow(preset.Name, ms(gen.Breakdown.Total), ms(pre.Breakdown.Total),
			ms(gen.Breakdown.PreEncryption), ms(pre.Breakdown.PreEncryption))
	}
	return tab, nil
}

// AblationHugePages reproduces the §6.1 THP observation: pvalidate with
// 2 MiB vs 4 KiB pages for a 256 MiB guest.
func AblationHugePages(opts Options) (*Table, error) {
	tab := &Table{
		Title:   "Ablation: pvalidate granularity (paper §6.1)",
		Columns: []string{"kernel", "thp (2MiB) verification", "4KiB verification", "delta"},
	}
	for _, preset := range opts.presets() {
		with, err := bootVariant(opts, preset, func(_ *firecracker.Config, h *kvm.Host) { h.THP = true })
		if err != nil {
			return nil, err
		}
		without, err := bootVariant(opts, preset, func(_ *firecracker.Config, h *kvm.Host) { h.THP = false })
		if err != nil {
			return nil, err
		}
		tab.AddRow(preset.Name, ms(with.Breakdown.BootVerification), ms(without.Breakdown.BootVerification),
			ms(without.Breakdown.BootVerification-with.Breakdown.BootVerification))
	}
	return tab, nil
}
