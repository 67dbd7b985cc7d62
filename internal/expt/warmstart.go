package expt

import (
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
)

// WarmStart explores the paper's §7 future work: cold boot vs a fork of
// the booted donor, for plain guests and for SEV guests under the §6.2
// shared-key relaxation, plus the dedup numbers that explain why keep-alive
// pools of SEV guests pay full memory.
func WarmStart(opts Options) (*Table, error) {
	tab := &Table{
		Title: "Warm start exploration (paper §7 future work)",
		Note:  "SEV warm start requires key sharing (visible in the policy); dedup gets zero traction on ciphertext.",
		Columns: []string{
			"configuration", "cold boot", "warm restore", "speedup", "dedup across 3 snapshots",
		},
	}
	for _, sc := range []scheme{schemeStock, schemeSEVeriFast} {
		sevOn := sc.level.Encrypted()
		cfg, err := sc.config(kernelgen.AWS(), opts.initrd())
		if err != nil {
			return nil, err
		}
		cfg.AllowKeySharing = sevOn

		var cold, warm time.Duration
		var images []*snapshot.Image
		w := newWorld(opts.model(), opts.Seed)
		w.spawn("warmstart", func(p *sim.Proc) error {
			res, err := sc.boot(p, w.host, cfg)
			if err != nil {
				return err
			}
			cold = res.Breakdown.Total
			fork, err := snapshot.CaptureFork(p, res.Machine, res.LaunchDigest)
			if err != nil {
				return err
			}
			// Three snapshots of identically-booted guests for the dedup
			// measurement.
			for i := 0; i < 3; i++ {
				r, err := sc.boot(p, w.host, cfg)
				if err != nil {
					return err
				}
				img, err := snapshot.Capture(p, r.Machine)
				if err != nil {
					return err
				}
				images = append(images, img)
			}
			// Fork the donor into a fresh machine.
			start := p.Now()
			m, err := fork.Boot(p, w.host, cfg.Level, cfg.Policy())
			if err != nil {
				return err
			}
			m.Timeline.Close(p.Now())
			warm = p.Now().Sub(start)
			return nil
		})
		if err := w.run(); err != nil {
			return nil, err
		}

		stats := snapshot.Dedup(images...)
		name := "stock-fc (no sev)"
		shared := fmt.Sprintf("%.0f%% shared", 100*stats.SharedFraction())
		if sevOn {
			name = "severifast-snp (shared key)"
			shared = fmt.Sprintf("%.0f%% of private pages shared", 100*stats.PrivateSharedFraction())
		}
		tab.AddRow(name, ms(cold), ms(warm),
			fmt.Sprintf("%.1fx", float64(cold)/float64(warm)), shared)
	}
	return tab, nil
}
