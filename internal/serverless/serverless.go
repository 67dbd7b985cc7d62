// Package serverless models the function platform the paper's
// introduction motivates: invocations arrive as a Poisson process, each
// runs in its own microVM, idle VMs are retained for a keep-alive window,
// and requests that miss the pool pay a cold start (Shahrad et al.'s
// observation that cold starts remain a significant fraction of
// invocations, cited as [39]).
//
// Three platform flavours expose the paper's design space end to end:
// non-confidential microVMs (stock Firecracker), confidential cold-boot
// only (SEVeriFast), and confidential with the §6.2/§7 shared-key
// snapshot pool. Every boot is the full simulated boot path; the pool and
// the arrival process run in the same virtual time, so PSP contention
// between concurrent cold starts emerges by itself.
package serverless

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
	"github.com/severifast/severifast/internal/trace"
)

// Mode selects the platform flavour.
type Mode int

// Platform flavours.
const (
	ModePlain   Mode = iota // stock Firecracker, no SEV
	ModeSEVCold             // SEVeriFast, cold boot on every pool miss
	ModeSEVWarm             // SEVeriFast + shared-key snapshot pool (§7)
)

func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeSEVCold:
		return "sev-cold"
	case ModeSEVWarm:
		return "sev-warm"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Workload describes the arrival process.
type Workload struct {
	// Invocations is the total request count.
	Invocations int
	// MeanInterarrival is the Poisson process's mean gap.
	MeanInterarrival time.Duration
	// ExecTime is the function's service time once the VM is up.
	ExecTime time.Duration
	// Seed drives the arrival draws.
	Seed int64
}

// Config describes the platform.
type Config struct {
	Mode      Mode
	Preset    kernelgen.Preset
	InitrdLen int
	// KeepAlive is how long an idle VM is retained before teardown.
	KeepAlive time.Duration
}

// Stats summarizes a run.
type Stats struct {
	Invocations int
	ColdStarts  int
	WarmStarts  int // pool hits and forks of the donor
	PoolHits    int
	// Latency is arrival-to-response (startup + execution).
	Latency trace.Series
	// StartupOnly is arrival-to-function-start.
	StartupOnly trace.Series
}

// ColdFraction is the share of invocations that paid a cold start.
func (s *Stats) ColdFraction() float64 {
	if s.Invocations == 0 {
		return 0
	}
	return float64(s.ColdStarts) / float64(s.Invocations)
}

// idleVM is one pooled instance.
type idleVM struct {
	expiry sim.Time
}

// platform is the shared scheduler state (procs run exclusively, so no
// locking is needed).
type platform struct {
	cfg      Config
	host     *kvm.Host
	launch   firecracker.Config // what every pool miss cold-boots
	pool     []idleVM
	fork     *snapshot.Fork // the warm pool's parent, captured before traffic
	stats    Stats
	firstErr error
}

// Run executes the workload against a fresh host and returns statistics.
func Run(eng *sim.Engine, host *kvm.Host, cfg Config, w Workload) (*Stats, error) {
	art, err := kernelgen.Cached(cfg.Preset)
	if err != nil {
		return nil, err
	}
	if cfg.InitrdLen <= 0 {
		cfg.InitrdLen = 2 << 20
	}
	launch := firecracker.Config{
		Preset:    cfg.Preset,
		Artifacts: art,
		Initrd:    kernelgen.BuildInitrd(w.Seed, cfg.InitrdLen),
	}
	if cfg.Mode != ModePlain {
		launch.Level = sev.SNP
		launch.Scheme = firecracker.SchemeSEVeriFastBz
		launch.AllowKeySharing = cfg.Mode == ModeSEVWarm
		hashes, err := launch.ComponentHashes()
		if err != nil {
			return nil, err
		}
		launch.Hashes = &hashes
	}
	pf := &platform{cfg: cfg, host: host, launch: launch}

	// The warm pool needs a donor to fork, captured before traffic starts.
	if cfg.Mode == ModeSEVWarm {
		eng.Go("donor", func(p *sim.Proc) {
			res, err := pf.coldBoot(p)
			if err != nil {
				pf.firstErr = err
				return
			}
			pf.fork, pf.firstErr = snapshot.CaptureFork(p, res.Machine, res.LaunchDigest)
		})
		eng.Run()
		if pf.firstErr != nil {
			return nil, pf.firstErr
		}
	}

	rng := rand.New(rand.NewSource(w.Seed))
	arrival := time.Duration(0)
	for i := 0; i < w.Invocations; i++ {
		// Exponential inter-arrival gaps.
		gap := time.Duration(-math.Log(1-rng.Float64()) * float64(w.MeanInterarrival))
		arrival += gap
		at := arrival
		eng.Go(fmt.Sprintf("inv-%d", i), func(p *sim.Proc) {
			p.Sleep(at)
			pf.invoke(p, w.ExecTime)
		})
	}
	eng.Run()
	if pf.firstErr != nil {
		return nil, pf.firstErr
	}
	pf.stats.Invocations = w.Invocations
	return &pf.stats, nil
}

// invoke services one request: pool hit, fork of the donor, or cold boot.
func (pf *platform) invoke(p *sim.Proc, exec time.Duration) {
	arrival := p.Now()

	if vm, ok := pf.takeIdle(p.Now()); ok {
		_ = vm
		pf.stats.PoolHits++
		pf.stats.WarmStarts++
		p.Sleep(500 * time.Microsecond) // dispatch into a live VM
	} else if pf.cfg.Mode == ModeSEVWarm && pf.fork != nil {
		m, err := pf.fork.Boot(p, pf.host, pf.launch.Level, firecracker.LaunchPolicy(pf.launch.Level, pf.launch.AllowKeySharing))
		if err != nil {
			pf.fail(err)
			return
		}
		m.Timeline.Close(p.Now())
		pf.stats.WarmStarts++
	} else {
		if _, err := pf.coldBoot(p); err != nil {
			pf.fail(err)
			return
		}
		pf.stats.ColdStarts++
	}
	started := p.Now()
	p.Sleep(exec)
	pf.release(p.Now())

	pf.stats.StartupOnly = append(pf.stats.StartupOnly, started.Sub(arrival))
	pf.stats.Latency = append(pf.stats.Latency, p.Now().Sub(arrival))
}

func (pf *platform) fail(err error) {
	if pf.firstErr == nil {
		pf.firstErr = err
	}
}

// takeIdle pops a live pooled VM, discarding expired entries.
func (pf *platform) takeIdle(now sim.Time) (idleVM, bool) {
	for len(pf.pool) > 0 {
		vm := pf.pool[len(pf.pool)-1]
		pf.pool = pf.pool[:len(pf.pool)-1]
		if vm.expiry >= now {
			return vm, true
		}
	}
	return idleVM{}, false
}

// release parks the VM in the keep-alive pool.
func (pf *platform) release(now sim.Time) {
	pf.pool = append(pf.pool, idleVM{expiry: now.Add(pf.cfg.KeepAlive)})
}

func (pf *platform) coldBoot(p *sim.Proc) (*firecracker.Result, error) {
	return firecracker.Boot(p, pf.host, pf.launch)
}
