// sevf-bench regenerates every table and figure in the paper's evaluation
// (and the ablations and extensions DESIGN.md adds), printing text tables
// and optionally writing CSV series to a results directory.
//
//	sevf-bench                       # everything, 100 runs for Fig. 9
//	sevf-bench -expt fig9,fig12      # a subset
//	sevf-bench -runs 10 -out results # quicker, with CSV output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	severifast "github.com/severifast/severifast"
	"github.com/severifast/severifast/internal/expt"
)

type runner struct {
	name string
	run  func(expt.Options) (*expt.Table, error)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sevf-bench", flag.ContinueOnError)
	var (
		which  = fs.String("expt", "all", "comma-separated experiments: fig3,fig4,fig5,fig7,fig8,fig9,fig10,fig11,fig12,mem,ablation-oob,ablation-preenc,ablation-thp,rot,warmstart,serverless")
		runs   = fs.Int("runs", 100, "boots per configuration for Fig. 9")
		jitter = fs.Bool("jitter", true, "apply the host-noise model to spread Fig. 9's CDFs")
		seed   = fs.Int64("seed", 1, "simulation seed")
		outDir = fs.String("out", "", "directory for CSV output (optional)")
		charts = fs.Bool("charts", false, "render ASCII CDF charts for Fig. 9")

		traceOut   = fs.String("trace-out", "", "also run one instrumented boot per scheme and write a Chrome trace (open in Perfetto)")
		metricsOut = fs.String("metrics-out", "", "write the instrumented run's telemetry in Prometheus text format")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := expt.Options{Runs: *runs, Seed: *seed, Jitter: *jitter}

	runners := []runner{
		{"fig3", expt.Fig3},
		{"fig4", expt.Fig4},
		{"fig5", expt.Fig5},
		{"fig7", expt.Fig7},
		{"fig8", expt.Fig8},
		{"fig9", runFig9(*outDir, *charts, out)},
		{"fig10", expt.Fig10},
		{"fig11", expt.Fig11},
		{"fig12", expt.Fig12},
		{"mem", expt.MemoryFootprint},
		{"ablation-oob", expt.AblationOutOfBandHashing},
		{"ablation-preenc", expt.AblationPreEncryptPageTables},
		{"ablation-thp", expt.AblationHugePages},
		{"rot", expt.RootOfTrust},
		{"warmstart", expt.WarmStart},
		{"serverless", expt.Serverless},
	}

	want := map[string]bool{}
	if *which != "all" {
		for _, name := range strings.Split(*which, ",") {
			want[strings.TrimSpace(name)] = true
		}
		for name := range want {
			known := false
			for _, r := range runners {
				if r.name == name {
					known = true
				}
			}
			if !known {
				return fmt.Errorf("unknown experiment %q", name)
			}
		}
	}

	start := time.Now()
	for _, r := range runners {
		if len(want) > 0 && !want[r.name] {
			continue
		}
		t0 := time.Now()
		tab, err := r.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Fprintln(out, tab)
		fmt.Fprintf(out, "(%s regenerated in %v of wall-clock time)\n\n", r.name, time.Since(t0).Round(time.Millisecond))
		if *outDir != "" {
			if err := writeCSV(*outDir, r.name, tab.CSV()); err != nil {
				return fmt.Errorf("write %s: %w", r.name, err)
			}
		}
	}
	fmt.Fprintf(out, "all experiments done in %v\n", time.Since(start).Round(time.Millisecond))
	if *traceOut != "" || *metricsOut != "" {
		if err := writeTelemetry(out, *seed, *traceOut, *metricsOut); err != nil {
			return err
		}
	}
	return nil
}

// writeTelemetry boots each scheme once on a single instrumented host —
// so the trace shows the Fig. 11 decompositions side by side on one
// virtual clock — and exports the registry.
func writeTelemetry(out io.Writer, seed int64, traceOut, metricsOut string) error {
	host := severifast.NewHostSeed(seed)
	for _, scheme := range []severifast.Scheme{
		severifast.SchemeStock,
		severifast.SchemeSEVeriFast,
		severifast.SchemeSEVeriFastVmlinux,
		severifast.SchemeQEMUOVMF,
	} {
		if _, err := host.Boot(severifast.Config{
			Kernel: severifast.KernelLupine, InitrdMiB: 2, Scheme: scheme, Seed: seed,
		}); err != nil {
			return fmt.Errorf("instrumented %s boot: %w", scheme, err)
		}
	}
	if traceOut != "" {
		if err := writeExport(traceOut, host.Telemetry().WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s (open at https://ui.perfetto.dev)\n", traceOut)
	}
	if metricsOut != "" {
		if err := writeExport(metricsOut, host.Telemetry().WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics written to %s\n", metricsOut)
	}
	return nil
}

// writeExport streams one exporter into a freshly created file.
func writeExport(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFig9 wraps the CDF experiment: the summary prints like any table, the
// full distributions go to CSV with -out, and -charts draws them as ASCII.
func runFig9(outDir string, charts bool, out io.Writer) func(expt.Options) (*expt.Table, error) {
	return func(o expt.Options) (*expt.Table, error) {
		data, err := expt.Fig9(o)
		if err != nil {
			return nil, err
		}
		var names []string
		for name := range data.CDFs {
			names = append(names, name)
		}
		sort.Strings(names)
		if charts {
			for _, name := range names {
				fmt.Fprintln(out, data.CDFs[name].RenderAs(name))
			}
		}
		if outDir != "" {
			var sb strings.Builder
			sb.WriteString("series,boot_ms,fraction\n")
			for _, name := range names {
				for _, pt := range data.CDFs[name].CDF() {
					fmt.Fprintf(&sb, "%s,%.3f,%.4f\n", name,
						float64(pt.Value)/float64(time.Millisecond), pt.Fraction)
				}
			}
			if err := writeCSV(outDir, "fig9-cdf", sb.String()); err != nil {
				return nil, err
			}
		}
		return data.Table, nil
	}
}

func writeCSV(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(content), 0o644)
}
