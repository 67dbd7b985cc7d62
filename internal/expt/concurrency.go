package expt

import (
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/trace"
)

// Fig12 reproduces the concurrent-launch experiment: N guests started at
// once on ONE host (one PSP). SEV boot time grows linearly with N because
// every launch command serializes on the single-core PSP; non-SEV boots
// stay flat (paper §6.2, "Concurrent VMs").
func Fig12(opts Options) (*Table, error) {
	tab := &Table{
		Title: "Figure 12: mean boot time of concurrent guest launches (AWS kernel)",
		Note:  "One host, one PSP. SEV series grow linearly; the non-SEV series stays flat.",
		Columns: []string{
			"concurrency", "severifast-snp", "qemu-snp", "stock-fc (no sev)",
		},
	}
	preset := kernelgen.AWS()
	for _, n := range opts.concurrencyPoints() {
		row := []string{fmt.Sprintf("%d", n)}
		for _, sc := range []scheme{schemeSEVeriFast, schemeQEMU, schemeStock} {
			mean, err := concurrentMean(opts, preset, sc, n)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(mean))
		}
		tab.AddRow(row...)
	}
	return tab, nil
}

// concurrentMean launches n guests simultaneously on one shared host and
// returns the mean boot time (to init; no attestation, as in Fig. 12).
func concurrentMean(opts Options, preset kernelgen.Preset, sc scheme, n int) (time.Duration, error) {
	cfg, err := sc.config(preset, opts.initrd())
	if err != nil {
		return 0, err
	}
	w := newWorld(costmodel.Default(), opts.Seed)
	var series trace.Series
	for i := 0; i < n; i++ {
		w.spawn(fmt.Sprintf("vm-%d", i), func(p *sim.Proc) error {
			out, err := sc.boot(p, w.host, cfg)
			if err != nil {
				return err
			}
			series = append(series, out.Breakdown.Total)
			return nil
		})
	}
	if err := w.run(); err != nil {
		return 0, err
	}
	if len(series) != n {
		return 0, fmt.Errorf("expt: %d of %d concurrent boots completed", len(series), n)
	}
	return series.Mean(), nil
}
