// sevf-cluster drives a trace-shaped open-loop workload through the
// multi-host cluster scheduler and prints one report per placement
// policy: makespan, boots per tier, per-host PSP utilization and ASID
// peaks, replication geography, and warm-pool activity. Passing several
// policies (comma-separated) replays the identical trace through a
// fresh cluster per policy, so the summaries are directly comparable.
//
//	sevf-cluster                                        # 8 hosts, 512 Zipf boots
//	sevf-cluster -policy random,cache-affinity          # same trace, two policies
//	sevf-cluster -trace bursty -burst-factor 12 -warm   # herd arrivals, warm pool on
//	sevf-cluster -hosts 4 -asids 4 -queue 64            # small cluster, backpressure
//	sevf-cluster -kbs                                   # attestation-gated boots
//	sevf-cluster -warm -storm                           # revocation storm + rolling TCB drift
//	sevf-cluster -summary-out run.json                  # machine-readable summaries
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/cluster"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Output is the machine-readable artifact: the effective trace spec
// plus one summary per policy, in flag order. Same flags, same bytes —
// the CI smoke job diffs this against a checked-in golden file.
type Output struct {
	Tool   string            `json:"tool"`
	Trace  cluster.TraceSpec `json:"trace"`
	ExecNs int64             `json:"exec_ns"`
	Runs   []cluster.Summary `json:"runs"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sevf-cluster", flag.ContinueOnError)
	var (
		hosts    = fs.Int("hosts", 8, "simulated host count")
		asids    = fs.Int("asids", 8, "SEV ASID pool per host (max live guests)")
		workers  = fs.Int("workers", 2, "boot workers per host")
		queue    = fs.Int("queue", 0, "cluster admission queue bound (0 = unbounded)")
		policies = fs.String("policy", "cache-affinity", "placement policies, comma-separated: "+strings.Join(cluster.PolicyNames(), ", "))
		warm     = fs.Bool("warm", false, "enable warm tiers and the cross-host warm-snapshot pool")
		fabric   = fs.Int("fabric", 4, "concurrent cross-host transfer slots")

		kind      = fs.String("trace", "zipf", "arrival trace: uniform, zipf, diurnal, bursty")
		arrivals  = fs.Int("arrivals", 512, "total boot requests")
		mean      = fs.Duration("mean", 20*time.Millisecond, "baseline mean inter-arrival gap")
		exec      = fs.Duration("exec", 10*time.Millisecond, "function execution time (ASID held)")
		images    = fs.Int("images", 12, "image population size")
		tenants   = fs.Int("tenants", 4, "tenants, round-robin across arrivals")
		zipfS     = fs.Float64("zipf-s", 1.2, "zipf skew exponent (> 1)")
		period    = fs.Duration("period", 0, "diurnal period (0 = arrivals*mean)")
		amplitude = fs.Float64("amplitude", 0.8, "diurnal rate amplitude in [0,1)")
		burstF    = fs.Float64("burst-factor", 8, "bursty rate multiplier during bursts")
		burstOn   = fs.Duration("burst-on", 0, "burst window (0 = 10*mean)")
		burstOff  = fs.Duration("burst-off", 0, "quiet window (0 = 40*mean)")

		preset    = fs.String("preset", "lupine", "kernel preset: lupine, aws, ubuntu")
		initrdLen = fs.Int("initrd", 512<<10, "initrd size per image in bytes")
		seed      = fs.Int64("seed", 1, "simulation seed")
		width     = fs.Int("width", 0, "CDF chart width (0 disables charts)")

		useKBS    = fs.Bool("kbs", false, "gate every boot behind an in-process key broker")
		tcbStr    = fs.String("tcb", "2.1.8.115", "platform TCB hosts are enrolled at")
		kbsSecret = fs.String("kbs-secret", "guest-volume-key", "per-tenant secret in the broker")
		retries   = fs.Int("retries", 3, "retry budget per boot")
		backoff   = fs.Duration("backoff", time.Millisecond, "base retry backoff")
		brkThresh = fs.Int("breaker-threshold", 0, "per-host breaker: consecutive KBS transport failures to open (0 = off)")
		brkCool   = fs.Duration("breaker-cooldown", 50*time.Millisecond, "per-host breaker cooldown")

		storm       = fs.Bool("storm", false, "fire a platform-generation revocation storm plus floor bump (implies -kbs)")
		stormAt     = fs.Duration("storm-at", 2*time.Second, "virtual instant the storm fires")
		stormGen    = fs.String("storm-gen", "gen0", "chip generation the storm revokes")
		generations = fs.Int("generations", 2, "chip generations striped across hosts (storm runs)")
		stormFloor  = fs.String("storm-floor", "2.1.9.120", "minimum-TCB floor the storm bumps to")
		driftStart  = fs.Duration("drift-start", time.Second, "when rolling per-host TCB updates begin")
		driftEvery  = fs.Duration("drift-interval", 250*time.Millisecond, "gap between per-host TCB updates (0 = no drift)")

		summaryOut = fs.String("summary-out", "", "write the Output JSON here ('-' = stdout, suppresses the text report)")
		metricsOut = fs.String("metrics-out", "", "write the last run's telemetry in Prometheus text format")
		traceOut   = fs.String("trace-out", "", "write the last run's Chrome trace-event JSON (open in Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	kp, err := kernelgen.PresetByName(*preset)
	if err != nil {
		return err
	}
	// The storm cascades through the attestation gates, so it only makes
	// sense on a broker-gated run.
	var floorTCB kbs.TCB
	if *storm {
		*useKBS = true
		if floorTCB, err = kbs.ParseTCB(*stormFloor); err != nil {
			return fmt.Errorf("-storm-floor: %w", err)
		}
	}
	spec := cluster.TraceSpec{
		Kind:             cluster.TraceKind(strings.ToLower(*kind)),
		Arrivals:         *arrivals,
		MeanGap:          *mean,
		Images:           *images,
		Tenants:          *tenants,
		ZipfS:            *zipfS,
		DiurnalPeriod:    *period,
		DiurnalAmplitude: *amplitude,
		BurstFactor:      *burstF,
		BurstOn:          *burstOn,
		BurstOff:         *burstOff,
		Seed:             *seed,
	}
	arr, err := spec.Generate()
	if err != nil {
		return err
	}
	names := strings.Split(*policies, ",")
	if len(names) == 0 || *policies == "" {
		return fmt.Errorf("need at least one -policy")
	}

	output := Output{Tool: "sevf-cluster", Trace: spec, ExecNs: int64(*exec)}
	quiet := *summaryOut == "-"
	for runIdx, polName := range names {
		polName = strings.TrimSpace(polName)
		pol, err := cluster.PolicyByName(polName, *seed)
		if err != nil {
			return err
		}
		// A fresh engine, registry, and cluster per policy: every run
		// replays the identical arrival schedule from virtual time zero.
		eng := sim.NewEngine()
		reg := telemetry.NewRegistry()
		eng.SetTracer(reg)
		cfg := cluster.Config{
			Hosts:          *hosts,
			ASIDsPerHost:   *asids,
			WorkersPerHost: *workers,
			QueueDepth:     *queue,
			Policy:         pol,
			EnableWarm:     *warm,
			FabricSlots:    *fabric,
			Seed:           *seed,
			Telemetry:      reg,
			Retry:          fleet.RetryPolicy{Max: *retries, Backoff: *backoff},
		}
		if *brkThresh > 0 {
			cfg.Breaker = fleet.BreakerPolicy{Threshold: *brkThresh, Cooldown: *brkCool}
		}
		if *storm {
			cfg.Generations = *generations
		}
		var broker *kbs.Broker
		if *useKBS {
			tcb, err := kbs.ParseTCB(*tcbStr)
			if err != nil {
				return fmt.Errorf("-tcb: %w", err)
			}
			auth := kbs.NewAuthority(*seed)
			broker = kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: tcb, Seed: *seed})
			for i := 0; i < *tenants; i++ {
				broker.AddTenant(fmt.Sprintf("t%d", i), []byte(*kbsSecret))
			}
			broker.Instrument(reg)
			cfg.KBS = broker
			cfg.Authority = auth
			cfg.TCB = tcb
			cfg.AgentSeed = *seed
		}
		c, err := cluster.New(eng, cfg)
		if err != nil {
			return err
		}
		if *storm {
			if err := c.InstallStorm(broker, cluster.StormConfig{
				At:            *stormAt,
				Generation:    *stormGen,
				Floor:         floorTCB,
				DriftStart:    *driftStart,
				DriftInterval: *driftEvery,
			}); err != nil {
				return err
			}
		}
		imgs := make([]*cluster.Image, 0, *images)
		for i := 0; i < *images; i++ {
			p := kp
			p.Cmdline = fmt.Sprintf("%s img=%d", p.Cmdline, i)
			// Distinct initrd per image: each image is its own blob to
			// the replication layer, so placement geography is visible
			// in the transfer accounting.
			img, err := c.RegisterImage(fmt.Sprintf("img-%d", i), p, kernelgen.BuildInitrd(*seed+int64(i), *initrdLen))
			if err != nil {
				return err
			}
			imgs = append(imgs, img)
		}
		if err := c.Play(arr, imgs, *exec); err != nil {
			return err
		}
		eng.Run()
		sum := c.Summarize()
		output.Runs = append(output.Runs, sum)
		if !quiet {
			if runIdx > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, sum.Report(*width))
			if *width > 0 {
				fmt.Fprint(out, c.LatencyCDFs(*width))
			}
		}
		// A cluster fault fails the run, but only after the report.
		if err := c.Err(); err != nil {
			return err
		}
		if runIdx == len(names)-1 {
			if *metricsOut != "" {
				if err := writeExport(*metricsOut, reg.WritePrometheus); err != nil {
					return err
				}
				if !quiet {
					fmt.Fprintf(out, "metrics written to %s\n", *metricsOut)
				}
			}
			if *traceOut != "" {
				if err := writeExport(*traceOut, reg.WriteChromeTrace); err != nil {
					return err
				}
				if !quiet {
					fmt.Fprintf(out, "trace written to %s (open at https://ui.perfetto.dev)\n", *traceOut)
				}
			}
		}
	}
	if *summaryOut != "" {
		blob, err := json.MarshalIndent(output, "", " ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if quiet {
			_, err = out.Write(blob)
			return err
		}
		if err := os.WriteFile(*summaryOut, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nsummaries written to %s\n", *summaryOut)
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
