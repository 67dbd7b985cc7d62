package expt

import (
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/cluster"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
	"github.com/severifast/severifast/internal/trace"
)

// Serverless runs the function-platform trace the paper's introduction
// motivates (Shahrad et al. [39]): Poisson arrivals into a keep-alive
// pool, for plain microVMs, confidential cold-boot-only, and the §7
// shared-key warm pool. The numbers show why the paper's cold-start
// optimization matters: every pool miss pays the full boot path, and
// under SEV those misses also contend on the PSP.
func Serverless(opts Options) (*Table, error) {
	tab := &Table{
		Title: "Serverless trace: Poisson arrivals into a keep-alive pool (AWS kernel)",
		Note:  "Startup latency is arrival-to-function-start; cold fraction is pool misses.",
		Columns: []string{
			"platform", "cold fraction", "startup p50", "startup p99", "e2e p99",
		},
	}
	const invocations = 60
	for _, row := range []struct {
		name string
		sc   scheme
		warm bool
	}{
		{"plain", schemeStock, false},
		{"sev-cold", schemeSEVeriFast, false},
		{"sev-warm", schemeSEVeriFast, true},
	} {
		cfg, err := row.sc.config(kernelgen.AWS(), opts.initrd())
		if err != nil {
			return nil, err
		}
		cfg.AllowKeySharing = row.warm
		k, err := runKeepAlive(newWorld(costmodel.Default(), opts.Seed), row.sc, cfg,
			2*time.Second, invocations, 400*time.Millisecond, 100*time.Millisecond)
		if err != nil {
			return nil, err
		}
		tab.AddRow(row.name,
			fmt.Sprintf("%.0f%%", 100*(float64(k.cold)/invocations)),
			ms(k.startup.Percentile(50)),
			ms(k.startup.Percentile(99)),
			ms(k.latency.Percentile(99)))
	}
	return tab, nil
}

// keepAlive is what the serverless trace's function platform did with
// its invocations.
type keepAlive struct {
	cold, forks, hits int
	startup, latency  trace.Series // arrival to function start, and to response
}

// runKeepAlive runs the serverless trace's function platform on w:
// invocations Poisson arrivals, meanGap apart on average and drawn from
// the world's seed, each running its function for exec in a microVM of
// cfg. A VM whose function returns idles for ttl, and an arrival in that
// window reuses the latest-released live one. A pool miss cold-boots cfg
// or, when cfg shares its key, forks a donor captured before the traffic
// starts (§7). Processes run exclusively, so nothing is locked.
func runKeepAlive(w *world, sc scheme, cfg firecracker.Config, ttl time.Duration, invocations int, meanGap, exec time.Duration) (*keepAlive, error) {
	spec := cluster.TraceSpec{Kind: cluster.TraceUniform, Arrivals: invocations, MeanGap: meanGap, Images: 1, Seed: w.seed}
	arrivals, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	var fork *snapshot.Fork
	if cfg.AllowKeySharing {
		w.spawn("donor", func(p *sim.Proc) (err error) {
			_, fork, err = w.captureDonor(p, sc, cfg)
			return err
		})
		if err := w.run(); err != nil {
			return nil, err
		}
	}
	k := &keepAlive{}
	var idle []sim.Time // each idle VM's expiry, the latest released last
	for _, a := range arrivals {
		w.spawn("invocation", func(p *sim.Proc) error {
			p.Sleep(a.At)
			arrival := p.Now()
			for len(idle) > 0 && idle[len(idle)-1] < arrival {
				idle = idle[:len(idle)-1]
			}
			switch {
			case len(idle) > 0:
				idle = idle[:len(idle)-1]
				k.hits++
				p.Sleep(500 * time.Microsecond) // dispatch into a live VM
			case fork != nil:
				if err := w.forkBoot(p, fork, cfg); err != nil {
					return err
				}
				k.forks++
			default:
				if _, err := sc.boot(p, w.host, cfg); err != nil {
					return err
				}
				k.cold++
			}
			started := p.Now()
			p.Sleep(exec)
			idle = append(idle, p.Now().Add(ttl))
			k.startup = append(k.startup, started.Sub(arrival))
			k.latency = append(k.latency, p.Now().Sub(arrival))
			return nil
		})
	}
	return k, w.run()
}
