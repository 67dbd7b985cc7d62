package expt

import (
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
)

// WarmStart explores the paper's §7 future work: cold boot vs snapshot
// restore, for plain guests and for SEV guests under the §6.2 shared-key
// relaxation, plus the dedup numbers that explain why keep-alive pools of
// SEV guests pay full memory.
func WarmStart(opts Options) (*Table, error) {
	tab := &Table{
		Title: "Warm start exploration (paper §7 future work)",
		Note:  "SEV warm start requires key sharing (visible in the policy); dedup gets zero traction on ciphertext.",
		Columns: []string{
			"configuration", "cold boot", "warm restore", "speedup", "dedup across 3 snapshots",
		},
	}
	preset := kernelgen.AWS()
	art, err := kernelgen.Cached(preset)
	if err != nil {
		return nil, err
	}
	initrd := opts.initrd()

	for _, sevOn := range []bool{false, true} {
		eng := sim.NewEngine()
		host := kvm.NewHost(eng, opts.model(), opts.Seed)

		cfg := firecracker.Config{
			Preset:    preset,
			Artifacts: art,
			Initrd:    initrd,
		}
		if sevOn {
			cfg.Level = sev.SNP
			cfg.Scheme = firecracker.SchemeSEVeriFastBz
			cfg.AllowKeySharing = true
			h := componentHashes(art, initrd, preset, cfg.Scheme)
			cfg.Hashes = &h
		} else {
			cfg.Level = sev.None
			cfg.Scheme = firecracker.SchemeStock
		}

		var cold time.Duration
		var donor *kvm.Machine
		var images []*snapshot.Image
		var warm time.Duration
		var runErr error
		eng.Go("warmstart", func(p *sim.Proc) {
			res, err := firecracker.Boot(p, host, cfg)
			if err != nil {
				runErr = err
				return
			}
			cold = res.Breakdown.Total
			donor = res.Machine
			// Three snapshots of identically-booted guests for the dedup
			// measurement.
			for i := 0; i < 3; i++ {
				r, err := firecracker.Boot(p, host, cfg)
				if err != nil {
					runErr = err
					return
				}
				img, err := snapshot.Capture(p, r.Machine)
				if err != nil {
					runErr = err
					return
				}
				images = append(images, img)
			}
			// Warm restore into a fresh machine.
			start := p.Now()
			if _, err := snapshot.WarmRestore(p, host, donor, images[0]); err != nil {
				runErr = err
				return
			}
			warm = p.Now().Sub(start)
		})
		eng.Run()
		if runErr != nil {
			return nil, runErr
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
