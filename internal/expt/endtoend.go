package expt

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/trace"
)

// Fig9Data carries the CDF experiment's distributions alongside the
// summary table, so callers can emit the full curves.
type Fig9Data struct {
	Table *Table
	// CDFs maps "<preset>/<scheme>" to the boot-time distribution
	// (including attestation where the kernel supports it).
	CDFs map[string]trace.Series
}

// Fig9 reproduces the end-to-end comparison: repeated serial boots of
// SEVeriFast vs QEMU/OVMF per kernel, measured from VMM exec to completed
// attestation (Lupine, which lacks networking, is measured to init).
func Fig9(opts Options) (*Fig9Data, error) {
	data := &Fig9Data{
		Table: &Table{
			Title: fmt.Sprintf("Figure 9: end-to-end boot time, SEVeriFast vs QEMU/OVMF (%d runs)", opts.runs()),
			Note:  "Boot time from VMM exec to remote attestation completed (to init for lupine).",
			Columns: []string{
				"kernel", "scheme", "mean", "stddev", "p50", "p99", "reduction",
			},
		},
		CDFs: make(map[string]trace.Series),
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for _, preset := range opts.presets() {
		var qemuMean time.Duration
		for _, sc := range []scheme{schemeQEMU, schemeSEVeriFast} {
			series, err := bootSeries(opts, preset, sc, rng)
			if err != nil {
				return nil, err
			}
			data.CDFs[preset.Name+"/"+sc.name] = series
			mean := series.Mean()
			reduction := "-"
			if sc.kind == firecracker.SchemeQEMUOVMF {
				qemuMean = mean
			} else if qemuMean > 0 {
				reduction = fmt.Sprintf("%.1f%%", 100*(1-float64(mean)/float64(qemuMean)))
			}
			data.Table.AddRow(preset.Name, sc.name, ms(mean), ms(series.Stddev()),
				ms(series.Percentile(50)), ms(series.Percentile(99)), reduction)
		}
	}
	return data, nil
}

// bootSeries runs opts.Runs serial boots and collects end-to-end times.
func bootSeries(opts Options, preset kernelgen.Preset, sc scheme, rng *rand.Rand) (trace.Series, error) {
	var series trace.Series
	for run := 0; run < opts.runs(); run++ {
		model := jitterModel(costmodel.Default(), rng, opts.Jitter)
		p := jitterPreset(preset, rng, opts.Jitter)
		out, err := bootOnce(model, p, opts.initrd(), sc, opts.Seed+int64(run), true)
		if err != nil {
			return nil, err
		}
		series = append(series, out.Breakdown.TotalWithAttest)
	}
	return series, nil
}

// Fig10 reproduces the pre-encryption / firmware-runtime table from the
// same configurations as Fig. 9.
func Fig10(opts Options) (*Table, error) {
	tab := &Table{
		Title:   "Figure 10: boot time breakdown, SEVeriFast vs QEMU",
		Note:    "Firmware column: OVMF PI phases + verification for QEMU; boot verification for SEVeriFast.",
		Columns: []string{"config", "pre-encryption", "firmware/boot verification"},
	}
	// QEMU rows first, then SEVeriFast, matching the paper's layout.
	for _, sc := range []scheme{schemeQEMU, schemeSEVeriFast} {
		for _, preset := range opts.presets() {
			out, err := bootOnce(costmodel.Default(), preset, opts.initrd(), sc, opts.Seed, false)
			if err != nil {
				return nil, err
			}
			b := out.Breakdown
			fw := b.BootVerification
			if sc.kind == firecracker.SchemeQEMUOVMF {
				fw = b.Firmware
			}
			tab.AddRow(fmt.Sprintf("%s %s", sc.name, preset.Name), ms(b.PreEncryption), ms(fw))
		}
	}
	return tab, nil
}

// Fig11 reproduces the stacked breakdown: stock Firecracker vs SEVeriFast
// (bzImage) vs SEVeriFast (vmlinux), per kernel, without attestation.
func Fig11(opts Options) (*Table, error) {
	tab := &Table{
		Title: "Figure 11: boot breakdown — stock FC vs SEVeriFast bz vs SEVeriFast vmlinux",
		Note:  "No attestation (the monitors' attestation paths are identical).",
		Columns: []string{
			"kernel", "scheme", "vmm", "boot verification", "bootstrap loader", "linux boot", "total",
		},
	}
	for _, preset := range opts.presets() {
		for _, sc := range []scheme{schemeStock, schemeSEVeriFast, schemeSEVFVmlinux} {
			out, err := bootOnce(costmodel.Default(), preset, opts.initrd(), sc, opts.Seed, false)
			if err != nil {
				return nil, err
			}
			b := out.Breakdown
			tab.AddRow(preset.Name, sc.name, ms(b.VMM), ms(b.BootVerification),
				ms(b.BootstrapLoader), ms(b.LinuxBoot), ms(b.Total))
		}
	}
	return tab, nil
}
