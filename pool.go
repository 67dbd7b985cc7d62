package severifast

// The Pool facade: the supported way to run many boots of one image.
//
// A Pool owns one host and one registered image. Its first Boot cold
// boots and measures the image; the orchestrator then captures a
// fork-ready shared-key snapshot, and every later Boot forks from it —
// CoW page aliasing of the donor's plaintext with the donor's launch
// digest inherited — so a warm boot costs O(dirty pages) of host work
// and O(1) digest reuse instead of re-measuring O(image) bytes.
// Prewarm builds forked standbys ahead of demand; Stats exposes the
// tier mix; Close drains and reports the first deterministic error.
//
//	pool, err := severifast.NewPool(severifast.Config{
//	    Kernel: severifast.KernelLupine,
//	}, severifast.PoolOptions{})
//	defer pool.Close()
//	cold, _ := pool.Boot() // measured cold boot, seeds the warm pool
//	warm, _ := pool.Boot() // forked: same digest, O(dirty) host work

import (
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
)

// PoolOptions tunes a Pool beyond what Config describes.
type PoolOptions struct {
	// WarmPoolSize caps how many forked standbys Prewarm may hold.
	// Defaults to 1024. Standbys are only created by explicit Prewarm
	// calls, so the default never changes Boot-only virtual timing.
	WarmPoolSize int
}

// PoolStats is a point-in-time snapshot of a Pool's serving history.
type PoolStats struct {
	// Boots counts completed boots; the per-tier fields break it down.
	Boots           int
	ColdBoots       int
	CachedColdBoots int
	WarmBoots       int
	// Standbys is the current prewarmed-standby depth.
	Standbys int
	// Attested counts boots whose key-release exchange was granted.
	Attested int
	// Failed counts boots that exhausted their retry budget.
	Failed int
	// ColdP50/WarmP50 are median request latencies (virtual time) per
	// tier; zero when the tier has served nothing.
	ColdP50 time.Duration
	WarmP50 time.Duration
}

// Pool runs many boots of one image on one host, warm ones forked from
// the donor by snapshot.Fork. Create it with NewPool; it is not safe for
// concurrent use from multiple goroutines (drive it from one, like a Host).
//
// Every Boot and Prewarm runs on one simulation process that the pool
// starts on its first call and keeps, idle between calls. Close ends it;
// a pool that is never closed keeps one parked goroutine.
//
// A pool records only what its Results read: a boot's span tree and
// events, kept for as long as a Result holds them (the donor's for the
// pool's life). Its engine has no scheduler tracer and its fleet mirrors
// no metrics into the registry; beyond that, a finished boot leaves only
// the latency samples Stats reads.
//
// A pool serves measured guests only, launched with the key-sharing policy
// its forks need, and the policy is part of the measurement: every boot's
// LaunchDigest, cold or forked, equals ExpectedLaunchDigest of the pool's
// Config with AllowKeySharing set, whatever the Config passed to NewPool
// says.
type Pool struct {
	host *Host
	cfg  Config

	orch *fleet.Orchestrator
	img  *fleet.Image

	lastServed *kvm.Machine
	closed     bool

	// worker is the pool's one standing process, started by the first
	// Boot or Prewarm.
	worker *sim.Worker
	// onJob, when set, is called with the process each call runs on as
	// the call starts; tests use it to see which process served a call.
	onJob func(*sim.Proc)

	// p.serve and p.done, bound once so a Boot builds no closure, then
	// the current Boot's outcome, which each Boot resets.
	serveFn  func(*sim.Proc)
	doneFn   func(*sim.Proc, fleet.Tier, error)
	start    sim.Time
	total    time.Duration
	bootErr  error
	finished bool
}

// poolTCB is the firmware level the pool's host is enrolled at when
// Config.Attest wires an in-process key broker.
var poolTCB = kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 115}

// NewPool validates cfg, provisions a fresh host, builds the fleet
// orchestrator (and its measured-image cache) and registers the image,
// so the first Boot pays only the boot, not the setup.
func NewPool(cfg Config, opts PoolOptions) (*Pool, error) {
	l, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	// The fleet launches Firecracker only, and from its measured-image
	// cache; an unmeasured launch is refused when the image registers.
	switch {
	case l.Scheme == firecracker.SchemeQEMUOVMF:
		return nil, fmt.Errorf("severifast: Pool does not support %q (use Host.Boot)", cfg.Scheme)
	case cfg.InBandHashing:
		return nil, fmt.Errorf("severifast: Pool does not support InBandHashing (its measured-image cache is the out-of-band hash file)")
	}
	if opts.WarmPoolSize <= 0 {
		opts.WarmPoolSize = 1024
	}
	h := NewHostSeed(cfgSeed(cfg))
	h.inner.THP = !cfg.DisableTHP
	h.inner.HugePageValidation = cfg.HugePageValidation
	h.eng.SetTracer(nil)
	h.reg.StopIndexing()
	p := &Pool{host: h, cfg: cfg, worker: sim.NewWorker(h.eng, "pool")}
	p.serveFn, p.doneFn = p.serve, p.done
	fcfg := fleet.Config{
		Name:         "pool",
		Standalone:   true,
		EnableWarm:   true,
		WarmPoolSize: opts.WarmPoolSize,
		OnServed: func(_ *sim.Proc, m *kvm.Machine, _ fleet.Tier) {
			p.lastServed = m
		},
	}
	// Like Host.Boot, a Pool attests only kernels with networking.
	if cfg.Attest && l.Preset.Networking {
		auth := kbs.NewAuthority(h.seed ^ 0xB0B)
		broker := kbs.NewBroker(auth.Root(), kbs.Config{
			MinTCB:   poolTCB,
			NonceTTL: time.Second,
			Seed:     h.seed,
		})
		broker.AddTenant("owner", []byte("secret-"+string(cfg.Kernel)))
		fcfg.KBS = broker
		fcfg.Enrollment = auth.Enroll(h.inner.PSP, "chip-pool", poolTCB)
		fcfg.AgentSeed = h.seed
	}
	p.orch = fleet.New(h.eng, h.inner, fcfg)
	if p.img, err = p.orch.Register(string(cfg.Kernel), *l); err != nil {
		return nil, classifyErr(err)
	}
	return p, nil
}

// Boot serves one boot of the pool's image: cold (measured) the first
// time, forked from the warm pool afterwards. The returned Result's
// Total is the request latency in virtual time; LaunchDigest is the
// measurement the guest attested with — identical for cold and forked
// boots of the same image. The guest's memory goes back to the pool's
// host at the next Boot or at Close, unless it is the warm pool's donor;
// the Result's digest, timeline and attestation stay usable.
func (p *Pool) Boot() (*Result, error) {
	if p.closed {
		return nil, fmt.Errorf("severifast: pool is closed")
	}
	p.total, p.bootErr, p.finished = 0, nil, false
	p.run(p.serveFn)
	if !p.finished {
		return nil, fmt.Errorf("severifast: pool boot never concluded")
	}
	if p.bootErr != nil {
		return nil, classifyErr(p.bootErr)
	}
	res := &Result{
		Total: p.total,
		host:  p.host,
	}
	if m := p.lastServed; m != nil {
		res.machine = m
		res.timeline = m.Timeline
		res.CPUs = p.cfg.VCPUs
		if m.Launch != nil {
			res.LaunchDigest = m.Launch.Digest()
		}
	}
	return res, nil
}

// serve is a Boot's body on the pool's process.
func (p *Pool) serve(pr *sim.Proc) {
	p.start = pr.Now()
	p.orch.Serve(pr, fleet.Request{Tenant: "owner", Image: p.img, Done: p.doneFn})
}

// done is the boot request's completion callback.
func (p *Pool) done(dp *sim.Proc, _ fleet.Tier, err error) {
	p.total, p.bootErr, p.finished = dp.Now().Sub(p.start), err, true
}

// Prewarm forks up to n standby guests so later Boot calls pop a ready
// machine instead of forking inline. If the warm pool is not yet seeded
// (no boot has happened), Prewarm pays one measured cold boot first to
// capture the donor; that boot counts in Stats. Returns how many
// standbys were added, bounded by PoolOptions.WarmPoolSize.
func (p *Pool) Prewarm(n int) (int, error) {
	if p.closed {
		return 0, fmt.Errorf("severifast: pool is closed")
	}
	if !p.img.HasWarm() {
		if _, err := p.Boot(); err != nil {
			return 0, err
		}
	}
	var (
		added  int
		preErr error
	)
	p.run(func(pr *sim.Proc) {
		added, preErr = p.orch.Prewarm(pr, p.img, n)
	})
	return added, classifyErr(preErr)
}

// run hands fn to the pool's standing process and runs the engine until
// fn has returned and the process idles again. One process serves every
// call: a process per call would build a coroutine and regrow its stack
// on every boot.
func (p *Pool) run(fn func(*sim.Proc)) {
	if on := p.onJob; on != nil {
		job := fn
		fn = func(pr *sim.Proc) { on(pr); job(pr) }
	}
	p.worker.Run(fn)
	p.host.eng.Run()
}

// Stats snapshots the pool's serving history.
func (p *Pool) Stats() PoolStats {
	var s PoolStats
	m := p.orch.Metrics()
	s.ColdBoots = m.Boots[fleet.TierCold]
	s.CachedColdBoots = m.Boots[fleet.TierCachedCold]
	s.WarmBoots = m.Boots[fleet.TierWarm]
	s.Boots = s.ColdBoots + s.CachedColdBoots + s.WarmBoots
	s.Standbys = p.orch.StandbyCount(p.img)
	s.Attested = m.Attested
	s.Failed = m.Failed
	if len(m.Latency[fleet.TierCold]) > 0 {
		s.ColdP50 = m.Latency[fleet.TierCold].Percentile(50)
	}
	if len(m.Latency[fleet.TierWarm]) > 0 {
		s.WarmP50 = m.Latency[fleet.TierWarm].Percentile(50)
	}
	return s
}

// Close ends the pool's process, drains the orchestrator and reports the
// first deterministic error any boot hit. The pool cannot be used
// afterwards.
func (p *Pool) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.worker.Close()
	p.orch.Close()
	p.host.eng.Run()
	return classifyErr(p.orch.Err())
}
