// sevf-fleet drives a synthetic open-loop arrival workload through the
// fleet orchestrator and prints a fleet report: boots per tier, cache
// effect, queue behaviour, and virtual-time latency distributions.
//
//	sevf-fleet                                   # defaults: 64 boots, 8 workers
//	sevf-fleet -workers 16 -arrivals 256 -warm   # warm pool on
//	sevf-fleet -queue 8 -mean 1ms                # overload with backpressure
//	sevf-fleet -kbs                              # attestation-gated boots, in-process broker
//	sevf-fleet -kbs-url http://127.0.0.1:8443    # redeem against sevf-attestd
//	sevf-fleet -kbs -tcb 2.1.8.114 -min-tcb 2.1.8.115    # platform below the floor: denied (stale-tcb)
//
// Boots retry transient failures (an unreachable broker) with exponential
// backoff; a broker denial fails the run. Tampered evidence is sevf-chaos's
// kbs campaign.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sevf-fleet", flag.ContinueOnError)
	var (
		workers   = fs.Int("workers", 8, "boot worker pool size")
		arrivals  = fs.Int("arrivals", 64, "total boot requests")
		mean      = fs.Duration("mean", 5*time.Millisecond, "mean inter-arrival gap (Poisson)")
		exec      = fs.Duration("exec", 10*time.Millisecond, "function execution time per request")
		queue     = fs.Int("queue", 0, "bounded queue depth (0 = unbounded)")
		tenants   = fs.Int("tenants", 4, "number of tenants sharing the fleet")
		preset    = fs.String("preset", "lupine", "kernel preset: lupine, aws, ubuntu")
		initrdLen = fs.Int("initrd", 2<<20, "initrd size in bytes")
		warm      = fs.Bool("warm", false, "enable the warm shared-key snapshot tier")
		retries   = fs.Int("retries", 3, "retry budget per request on transient failures")
		backoff   = fs.Duration("backoff", time.Millisecond, "base retry backoff (exponential)")
		seed      = fs.Int64("seed", 1, "simulation seed")
		width     = fs.Int("width", 60, "CDF chart width (0 disables charts)")

		useKBS    = fs.Bool("kbs", false, "gate every boot behind an in-process key broker")
		kbsURL    = fs.String("kbs-url", "", "remote key-broker base URL (sevf-attestd); implies gating")
		authSeed  = fs.Int64("auth-seed", 1, "key-authority seed; must match the broker's")
		chipID    = fs.String("chip", "chip-0", "platform chip ID enrolled under the authority")
		tcbStr    = fs.String("tcb", "2.1.8.115", "platform TCB (bootloader.tee.snp.microcode)")
		minTCB    = fs.String("min-tcb", "", "in-process broker's minimum TCB (defaults to the platform TCB)")
		kbsSecret = fs.String("kbs-secret", "guest-volume-key", "per-tenant secret in the in-process broker")
		nonceTTL  = fs.Duration("nonce-ttl", time.Minute, "in-process broker challenge lifetime in virtual time")

		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event JSON file of the run (open in Perfetto)")
		metricsOut = fs.String("metrics-out", "", "write fleet metrics in Prometheus text format")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var p kernelgen.Preset
	switch strings.ToLower(*preset) {
	case "lupine":
		p = kernelgen.Lupine()
	case "aws":
		p = kernelgen.AWS()
	case "ubuntu":
		p = kernelgen.Ubuntu()
	default:
		return fmt.Errorf("unknown preset %q (want lupine, aws, or ubuntu)", *preset)
	}
	if *arrivals <= 0 {
		return fmt.Errorf("arrivals must be positive")
	}
	if *workers <= 0 {
		return fmt.Errorf("workers must be positive")
	}
	if *tenants <= 0 {
		return fmt.Errorf("tenants must be positive")
	}

	cfg := fleet.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		EnableWarm: *warm,
		Retry:      fleet.RetryPolicy{Max: *retries, Backoff: *backoff},
	}

	names := make([]string, *tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
	}

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), *seed)

	// One registry spans the whole run: boot span trees, fleet counters,
	// PSP service slots, broker verdicts. It is stamped from virtual time
	// only, so same-seed runs export byte-identical files.
	var reg *telemetry.Registry
	if *traceOut != "" || *metricsOut != "" {
		reg = telemetry.NewRegistry()
		eng.SetTracer(reg)
		host.Telemetry = reg
		cfg.Telemetry = reg
	}
	if *useKBS || *kbsURL != "" {
		platTCB, err := kbs.ParseTCB(*tcbStr)
		if err != nil {
			return fmt.Errorf("-tcb: %w", err)
		}
		auth := kbs.NewAuthority(*authSeed)
		cfg.Enrollment = auth.Enroll(host.PSP, *chipID, platTCB)
		cfg.AgentSeed = *seed
		if *kbsURL != "" {
			cfg.KBS = &kbs.Client{Base: *kbsURL}
		} else {
			floor := platTCB
			if *minTCB != "" {
				if floor, err = kbs.ParseTCB(*minTCB); err != nil {
					return fmt.Errorf("-min-tcb: %w", err)
				}
			}
			broker := kbs.NewBroker(auth.Root(), kbs.Config{
				MinTCB:   floor,
				NonceTTL: *nonceTTL,
				Seed:     *seed,
			})
			for _, name := range names {
				broker.AddTenant(name, []byte(*kbsSecret))
			}
			broker.Instrument(reg)
			cfg.KBS = broker
		}
	}
	o := fleet.New(eng, host, cfg)
	img, err := o.RegisterImage(p.Name, p, kernelgen.BuildInitrd(*seed, *initrdLen))
	if err != nil {
		return err
	}
	w := fleet.Workload{
		Arrivals:         *arrivals,
		MeanInterarrival: *mean,
		ExecTime:         *exec,
		Tenants:          names,
		Images:           []*fleet.Image{img},
		Seed:             *seed,
	}
	if err := w.Run(eng, o); err != nil {
		return err
	}
	eng.Run()
	if err := o.Err(); err != nil {
		return err
	}

	fmt.Fprintf(out, "sevf-fleet: %s, %d workers, %d arrivals (mean gap %v), %d tenants",
		p.Name, cfg.Workers, *arrivals, *mean, *tenants)
	if *warm {
		fmt.Fprint(out, ", warm pool")
	}
	if *kbsURL != "" {
		fmt.Fprintf(out, ", kbs %s", *kbsURL)
	} else if *useKBS {
		fmt.Fprint(out, ", kbs in-process")
	}
	fmt.Fprintf(out, "\nvirtual makespan %v\n\n", eng.Now())
	fmt.Fprint(out, o.Metrics().Report(o.CacheStats(), *width))
	if *traceOut != "" {
		if err := writeExport(*traceOut, reg.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(out, "\ntrace written to %s (open at https://ui.perfetto.dev)\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := writeExport(*metricsOut, reg.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics written to %s\n", *metricsOut)
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
