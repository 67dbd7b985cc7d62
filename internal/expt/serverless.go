package expt

import (
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/serverless"
)

// Serverless runs the function-platform trace the paper's introduction
// motivates: Poisson arrivals into a keep-alive pool, for plain microVMs,
// confidential cold-boot-only, and the §7 shared-key warm pool. The
// numbers show why the paper's cold-start optimization matters: every
// pool miss pays the full boot path, and under SEV those misses also
// contend on the PSP.
func Serverless(opts Options) (*Table, error) {
	tab := &Table{
		Title: "Serverless trace: Poisson arrivals into a keep-alive pool (AWS kernel)",
		Note:  "Startup latency is arrival-to-function-start; cold fraction is pool misses.",
		Columns: []string{
			"platform", "cold fraction", "startup p50", "startup p99", "e2e p99",
		},
	}
	w := serverless.Workload{
		Invocations:      60,
		MeanInterarrival: 400 * time.Millisecond,
		ExecTime:         100 * time.Millisecond,
		Seed:             opts.Seed,
	}
	for _, mode := range []serverless.Mode{serverless.ModePlain, serverless.ModeSEVCold, serverless.ModeSEVWarm} {
		platform := newWorld(costmodel.Default(), opts.Seed)
		stats, err := serverless.Run(platform.eng, platform.host, serverless.Config{
			Mode:      mode,
			Preset:    kernelgen.AWS(),
			InitrdLen: opts.initrdSize(),
			KeepAlive: 2 * time.Second,
		}, w)
		if err != nil {
			return nil, err
		}
		tab.AddRow(mode.String(),
			fmt.Sprintf("%.0f%%", 100*stats.ColdFraction()),
			ms(stats.StartupOnly.Percentile(50)),
			ms(stats.StartupOnly.Percentile(99)),
			ms(stats.Latency.Percentile(99)))
	}
	return tab, nil
}
