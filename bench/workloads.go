package bench

import (
	"fmt"
	"time"

	severifast "github.com/severifast/severifast"
	"github.com/severifast/severifast/internal/cluster"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/trace"
	"github.com/severifast/severifast/internal/verifier"
)

// churnBootsPerImage is one cold boot (which captures the fork) plus
// three forked boots, per image, before the image is evicted.
const churnBootsPerImage = 4

// fixture is what the traced round's probes run on: the workload's own
// inputs, kept after the timed region.
type fixture struct {
	preset  kernelgen.Preset
	spec    fleet.ImageSpec
	initrdN int
	// warm is set when forks and sealed snapshots are on the workload's
	// path; broker when a key broker and policy engine are.
	warm   bool
	broker *kbs.Broker
}

// newHost builds one simulated machine on eng and hooks the round's
// recorders onto it.
func newHost(e *env, eng *sim.Engine, seed int64) *kvm.Host {
	host := kvm.NewHost(eng, costmodel.Default(), seed)
	e.record(host.HostStats)
	return host
}

func newEngine(e *env) *sim.Engine {
	eng := sim.NewEngine()
	if e.sim != nil {
		eng.SetTracer(e.sim)
	}
	return eng
}

// imageSpec mirrors what fleet.RegisterImage derives for a bzImage boot
// of preset. The benchmark rebuilds it on its own so the expected launch
// digest is computed independently of the orchestrator it checks; a
// mismatch with the orchestrator's spec shows up as a missing cache key.
func imageSpec(preset kernelgen.Preset, initrd []byte, memSize uint64, warm bool) (fleet.ImageSpec, error) {
	art, err := kernelgen.Cached(preset)
	if err != nil {
		return fleet.ImageSpec{}, err
	}
	return fleet.ImageSpec{
		Kernel:       art.BzImageLZ4,
		Initrd:       initrd,
		Cmdline:      preset.Cmdline,
		VCPUs:        1,
		MemSize:      memSize,
		Level:        sev.SNP,
		Policy:       firecracker.LaunchPolicy(sev.SNP, warm),
		VerifierSeed: 1,
	}, nil
}

// expectedDigest is the paper's §4.2 tool: the launch digest a correct
// launch of spec must produce.
func expectedDigest(spec fleet.ImageSpec) ([32]byte, error) {
	return measure.ExpectedDigest(measure.Config{
		Verifier:             verifier.Image(spec.VerifierSeed),
		Hashes:               measure.HashComponents(spec.Kernel, spec.Initrd, spec.Cmdline),
		Cmdline:              spec.Cmdline,
		VCPUs:                spec.VCPUs,
		MemSize:              spec.MemSize,
		Level:                spec.Level,
		Policy:               spec.Policy,
		PreEncryptPageTables: spec.PreEncryptPageTables,
	})
}

// variant gives image i of a set its own command line, as sevf-cluster
// does, so every image has its own measurement.
func variant(preset kernelgen.Preset, i int) kernelgen.Preset {
	preset.Cmdline = fmt.Sprintf("%s img=%d", preset.Cmdline, i)
	return preset
}

// digestAudit checks the launch digest of boots that went live.
type digestAudit struct {
	want    map[[32]byte]bool
	checked int
	bad     error
}

func newDigestAudit() *digestAudit { return &digestAudit{want: map[[32]byte]bool{}} }

func (a *digestAudit) observe(m *kvm.Machine) {
	if m.Launch == nil {
		a.fail(fmt.Errorf("served guest has no launch context"))
		return
	}
	a.checked++
	if d := m.Launch.Digest(); !a.want[d] {
		a.fail(fmt.Errorf("served guest measured %x, which is no registered image's expected digest", d[:8]))
	}
}

func (a *digestAudit) fail(err error) {
	if a.bad == nil {
		a.bad = err
	}
}

// fleetAcc sums the counters of one or more orchestrators.
type fleetAcc struct {
	cache     fleet.CacheStats
	tiers     [3]int
	retries   int
	reattests int
	warmInv   int
	attested  int
	queueWait trace.Series
	attestLat trace.Series
	latency   trace.Series
}

func (a *fleetAcc) add(met *fleet.Metrics, cs fleet.CacheStats) {
	a.cache.Hits += cs.Hits
	a.cache.Misses += cs.Misses
	a.cache.Plans += cs.Plans
	a.cache.HashedBytes += cs.HashedBytes
	for t := fleet.TierWarm; t <= fleet.TierCold; t++ {
		a.tiers[t] += met.Boots[t]
		a.latency = append(a.latency, met.Latency[t]...)
	}
	a.retries += met.Retries
	a.reattests += met.Reattests
	a.warmInv += met.WarmInvalidated
	a.attested += met.Attested
	a.queueWait = append(a.queueWait, met.QueueWait...)
	a.attestLat = append(a.attestLat, met.AttestLatency...)
}

func (a *fleetAcc) layer() map[string]float64 {
	return map[string]float64{
		"fleet.cache_hit_ratio":           a.cache.HitRatio(),
		"fleet.cache_plans":               float64(a.cache.Plans),
		"fleet.cache_hashed_bytes":        float64(a.cache.HashedBytes),
		"fleet.tier_warm":                 float64(a.tiers[fleet.TierWarm]),
		"fleet.tier_cached_cold":          float64(a.tiers[fleet.TierCachedCold]),
		"fleet.tier_cold":                 float64(a.tiers[fleet.TierCold]),
		"fleet.retries":                   float64(a.retries),
		"fleet.reattests":                 float64(a.reattests),
		"fleet.warm_invalidated":          float64(a.warmInv),
		"fleet.queue_wait_virtual_ms_p50": ms(a.queueWait.Percentile(50)),
		"attest.exchange_virtual_ms_p50":  ms(a.attestLat.Percentile(50)),
		"attest.attested":                 float64(a.attested),
	}
}

// coldCached: one host, one image, an open-loop schedule of same-image
// boots through the worker pool. The first boot measures; the rest read
// the measured-image cache.
func coldCached(e *env, in *inputs) (*outcome, error) {
	eng := newEngine(e)
	host := newHost(e, eng, in.seed)
	audit := newDigestAudit()
	o := fleet.New(eng, host, fleet.Config{
		Workers:  in.boots,
		MemSize:  in.memSize(),
		OnServed: func(_ *sim.Proc, m *kvm.Machine, _ fleet.Tier) { audit.observe(m) },
	})
	preset := kernelgen.Lupine()
	sp := e.tr.Begin("fleet.RegisterImage")
	img, err := o.RegisterImage("fn", preset, in.initrds[0])
	e.tr.End(sp)
	if err != nil {
		return nil, err
	}
	want, err := expectedDigest(img.Spec())
	if err != nil {
		return nil, err
	}
	audit.want[want] = true
	if err := (fleet.Workload{
		Arrivals:         in.boots,
		MeanInterarrival: in.gap,
		Images:           []*fleet.Image{img},
		Seed:             in.seed,
	}).Run(eng, o); err != nil {
		return nil, err
	}
	err = e.timed(func() error {
		sp := e.tr.Begin("fleet.Run")
		eng.Run()
		e.tr.End(sp)
		return o.Err()
	})
	if err != nil {
		return nil, err
	}
	if audit.bad != nil {
		return nil, audit.bad
	}
	met := o.Metrics()
	var acc fleetAcc
	acc.add(met, o.CacheStats())
	if audit.checked != met.TotalBoots() {
		return nil, fmt.Errorf("audited %d served boots, orchestrator served %d", audit.checked, met.TotalBoots())
	}
	return &outcome{
		attempted: met.Submitted,
		served:    met.TotalBoots(),
		failures:  map[string]int{"rejected": met.Rejected, "failed": met.Failed},
		latP50:    acc.latency.Percentile(50),
		latP99:    acc.latency.Percentile(99),
		samples:   len(acc.latency),
		makespan:  eng.Now().Duration(),
		output:    met,
		layer:     acc.layer(),
		fixture:   &fixture{preset: preset, spec: img.Spec(), initrdN: in.initrdBytes},
	}, nil
}

// warmForkInitrdMiB is the Pool's initrd size on warm_fork.
const warmForkInitrdMiB = 4

// warmFork: the public Pool. One cold boot in set-up seeds the warm
// pool; the timed region is a closed loop of one client forking from it.
func warmFork(e *env, in *inputs) (*outcome, error) {
	cfg := severifast.Config{
		Kernel:    severifast.KernelLupine,
		InitrdMiB: warmForkInitrdMiB,
		MemMiB:    in.memMiB,
		Seed:      in.seed,
	}
	sp := e.tr.Begin("severifast.NewPool")
	pool, err := severifast.NewPool(cfg, severifast.PoolOptions{})
	e.tr.End(sp)
	if err != nil {
		return nil, err
	}
	cold, err := pool.Boot()
	if err != nil {
		return nil, err
	}
	// The pool launches with the key-sharing policy its forks need, and
	// that policy is part of the measurement.
	wantCfg := cfg
	wantCfg.AllowKeySharing = true
	want, err := severifast.ExpectedLaunchDigest(wantCfg)
	if err != nil {
		return nil, err
	}
	if cold.LaunchDigest != want {
		return nil, fmt.Errorf("cold seed measured %x, expected %x", cold.LaunchDigest[:8], want[:8])
	}

	type bootRec struct {
		TotalNs int64 `json:"total_ns"`
	}
	recs := make([]bootRec, 0, in.boots)
	lat := make(trace.Series, 0, in.boots)
	var makespan time.Duration
	err = e.timed(func() error {
		for i := 0; i < in.boots; i++ {
			sp := e.tr.Begin("severifast.Pool.Boot")
			r, err := pool.Boot()
			e.tr.End(sp)
			if err != nil {
				return err
			}
			if r.LaunchDigest != want {
				return fmt.Errorf("forked boot %d measured %x, expected %x", i, r.LaunchDigest[:8], want[:8])
			}
			lat = append(lat, r.Total)
			makespan += r.Total
			recs = append(recs, bootRec{TotalNs: int64(r.Total)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := pool.Stats()
	if err := pool.Close(); err != nil {
		return nil, err
	}
	if st.WarmBoots != in.boots || st.Failed != 0 {
		return nil, fmt.Errorf("pool served %d warm boots with %d failures, want %d and 0", st.WarmBoots, st.Failed, in.boots)
	}
	// The probes need the image the Pool built for itself; rebuilding it
	// costs an initrd generation, so only a traced round does.
	var fx *fixture
	if e.tr != nil {
		preset := kernelgen.Lupine()
		spec, err := imageSpec(preset, kernelgen.BuildInitrd(in.seed, warmForkInitrdMiB<<20), in.memSize(), true)
		if err != nil {
			return nil, err
		}
		fx = &fixture{preset: preset, spec: spec, initrdN: warmForkInitrdMiB << 20, warm: true}
	}
	return &outcome{
		attempted: in.boots,
		served:    len(lat),
		failures:  map[string]int{"failed": st.Failed},
		latP50:    lat.Percentile(50),
		latP99:    lat.Percentile(99),
		samples:   len(lat),
		makespan:  makespan,
		output:    recs,
		layer: map[string]float64{
			"fleet.tier_warm":        float64(st.WarmBoots),
			"fleet.tier_cached_cold": float64(st.CachedColdBoots),
			// The cold seed is set-up and not in the timed region.
			"fleet.tier_cold": float64(st.ColdBoots - 1),
		},
		fixture: fx,
	}, nil
}

// imageChurn: every image goes through the whole life of a warm pool
// entry — register, measured cold boot that captures the fork, three
// forked boots, eviction — so each cache is written, not only read.
func imageChurn(e *env, in *inputs) (*outcome, error) {
	eng := newEngine(e)
	host := newHost(e, eng, in.seed)
	audit := newDigestAudit()
	o := fleet.New(eng, host, fleet.Config{
		Standalone: true,
		EnableWarm: true,
		MemSize:    in.memSize(),
		OnServed:   func(_ *sim.Proc, m *kvm.Machine, _ fleet.Tier) { audit.observe(m) },
	})
	base := kernelgen.Lupine()
	if _, err := kernelgen.Cached(base); err != nil {
		return nil, err
	}
	// Expected digests come from the benchmark's own spec, before the
	// orchestrator has seen the image.
	var first fleet.ImageSpec
	for i := 0; i < in.images; i++ {
		spec, err := imageSpec(variant(base, i), in.initrds[i], in.memSize(), true)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = spec
		}
		want, err := expectedDigest(spec)
		if err != nil {
			return nil, err
		}
		audit.want[want] = true
	}
	var bootErr error
	serve := func(img *fleet.Image, name string) {
		sp := e.tr.Begin(name)
		eng.Go("churn", func(p *sim.Proc) {
			o.Serve(p, fleet.Request{Tenant: "t0", Image: img, Done: func(_ *sim.Proc, _ fleet.Tier, err error) {
				if err != nil && bootErr == nil {
					bootErr = err
				}
			}})
		})
		eng.Run()
		e.tr.End(sp)
	}
	err := e.timed(func() error {
		for i := 0; i < in.images; i++ {
			sp := e.tr.Begin("fleet.RegisterImage")
			img, err := o.RegisterImage(fmt.Sprintf("img-%d", i), variant(base, i), in.initrds[i])
			e.tr.End(sp)
			if err != nil {
				return err
			}
			serve(img, "fleet.Serve.cold")
			for k := 1; k < churnBootsPerImage; k++ {
				serve(img, "fleet.Serve.warm")
			}
			o.EvictWarm(img)
		}
		if bootErr != nil {
			return bootErr
		}
		return o.Err()
	})
	if err != nil {
		return nil, err
	}
	if audit.bad != nil {
		return nil, audit.bad
	}
	met := o.Metrics()
	var acc fleetAcc
	acc.add(met, o.CacheStats())
	if got, want := met.Boots[fleet.TierWarm], in.images*(churnBootsPerImage-1); got != want {
		return nil, fmt.Errorf("%d forked boots, want %d", got, want)
	}
	return &outcome{
		attempted: met.Submitted,
		served:    met.TotalBoots(),
		failures:  map[string]int{"rejected": met.Rejected, "failed": met.Failed},
		latP50:    acc.latency.Percentile(50),
		latP99:    acc.latency.Percentile(99),
		samples:   len(acc.latency),
		makespan:  eng.Now().Duration(),
		output:    met,
		layer:     acc.layer(),
		fixture:   &fixture{preset: variant(base, 0), spec: first, initrdN: in.initrdBytes, warm: true},
	}, nil
}

// clusterExec is the function service time a guest holds its ASID for.
const clusterExec = 10 * time.Millisecond

// clusterZipf: the multi-host scheduler at scale with no crypto on the
// path — event loop, dispatcher, placement, replication.
func clusterZipf(e *env, in *inputs) (*outcome, error) {
	pol, err := cluster.PolicyByName("cache-affinity", in.seed)
	if err != nil {
		return nil, err
	}
	return runCluster(e, in, cluster.Config{
		Hosts:        in.hosts,
		ASIDsPerHost: 8,
		// Four workers a host, not the CLI's two: with two, the hosts the
		// hottest images stick to run at their worker limit, and the
		// simulated tail measures how arrivals happened to clump (p99
		// moves 27 % between seeds) and not the scheduler.
		WorkersPerHost: 4,
		Policy:         pol,
		Seed:           in.seed,
		MemSize:        in.memSize(),
	}, nil, nil)
}

var (
	stormTCB   = kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 115}
	stormFloor = kbs.TCB{BootLoader: 2, TEE: 1, SNP: 9, Microcode: 120}
)

// stormGap is the mean arrival gap on cluster_storm. An attested warm
// boot holds its host's PSP for about 172 ms of simulated time (guest
// init, fork launch, report signing), so four hosts serve about 23 boots
// a second before the storm and two serve half that after it. 150 ms
// between arrivals is 30 % of the first and 60 % of the second: the queue
// stays bounded on both sides of the storm, so simulated latency shows
// the trust plane's work and not a backlog.
const stormGap = 150 * time.Millisecond

// stormClusterSeed fixes the cluster's own seed on cluster_storm: it
// draws the order in which hosts take the rolling firmware update, which
// is part of the scenario (like the storm instant), not an input. With 6
// the order is h3, h0, h1, h2: a surviving host is current well before
// the storm, the other becomes current at the storm instant.
const stormClusterSeed = 6

// stormTraceSeed fixes cluster_storm's arrival trace (see makeInputs).
// On this trace three boots are refused: they are in flight on a
// generation-0 host when the storm revokes it.
const stormTraceSeed = 6

// clusterStorm: everything the trust plane has — broker-gated boots,
// shared policy engine, cross-host sealed warm pools, and a generation
// revocation plus floor bump with rolling drift across it. The storm
// instants are fractions of the expected trace length, so a scaled-down
// round still fires the storm mid-trace.
func clusterStorm(e *env, in *inputs) (*outcome, error) {
	pol, err := cluster.PolicyByName("tcb-aware", in.seed)
	if err != nil {
		return nil, err
	}
	auth := kbs.NewAuthority(in.seed)
	broker := kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: stormTCB, Seed: in.seed})
	for i := 0; i < in.trace.Tenants; i++ {
		broker.AddTenant(fmt.Sprintf("t%d", i), []byte("guest-volume-key"))
	}
	span := time.Duration(in.boots) * in.gap
	storm := &cluster.StormConfig{
		At:            span * 4 / 10,
		Generation:    "gen0",
		Floor:         stormFloor,
		DriftStart:    span * 2 / 10,
		DriftInterval: span / 10,
	}
	return runCluster(e, in, cluster.Config{
		Hosts:          in.hosts,
		ASIDsPerHost:   8,
		WorkersPerHost: 2,
		Policy:         pol,
		EnableWarm:     true,
		Seed:           stormClusterSeed,
		MemSize:        in.memSize(),
		Generations:    2,
		KBS:            broker,
		Authority:      auth,
		TCB:            stormTCB,
		AgentSeed:      in.seed,
		Admission:      broker.PolicyEngine(),
		Retry:          fleet.RetryPolicy{Max: 3, Backoff: time.Millisecond},
	}, broker, storm)
}

// auditSampleEvery is how often a cluster round keeps a machine to read
// its final launch digest directly. Keeping every machine would hold
// every guest's memory alive and change what peak_rss_mib measures.
const auditSampleEvery = 64

// clusterOutput is the canonical output of a cluster round.
type clusterOutput struct {
	Summary cluster.Summary `json:"summary"`
	Broker  *kbs.Stats      `json:"broker,omitempty"`
	Policy  *policy.Stats   `json:"policy,omitempty"`
}

func runCluster(e *env, in *inputs, cfg cluster.Config, broker *kbs.Broker, storm *cluster.StormConfig) (*outcome, error) {
	eng := newEngine(e)
	if e.tr != nil {
		cfg.Policy = tracedPolicy{Policy: cfg.Policy, tr: e.tr}
		if cfg.KBS != nil {
			cfg.WrapKBS = func(_ int, svc kbs.Service) kbs.Service { return tracedKBS{Service: svc, tr: e.tr} }
		}
	}
	c, err := cluster.New(eng, cfg)
	if err != nil {
		return nil, err
	}
	audit := newDigestAudit()
	var sampled []*kvm.Machine
	created := 0
	for _, s := range c.Shards() {
		e.record(s.Host.HostStats)
		s.Host.OnNewMachine = func(m *kvm.Machine) {
			if created%auditSampleEvery == 0 {
				sampled = append(sampled, m)
			}
			created++
		}
	}
	if storm != nil {
		if err := c.InstallStorm(broker, *storm); err != nil {
			return nil, err
		}
	}
	base := kernelgen.Lupine()
	imgs := make([]*cluster.Image, in.images)
	specs := make([]fleet.ImageSpec, in.images)
	wants := make([][32]byte, in.images)
	for i := range imgs {
		preset := variant(base, i)
		sp := e.tr.Begin("cluster.RegisterImage")
		imgs[i], err = c.RegisterImage(fmt.Sprintf("img-%d", i), preset, in.initrds[i])
		e.tr.End(sp)
		if err != nil {
			return nil, err
		}
		if specs[i], err = imageSpec(preset, in.initrds[i], in.memSize(), cfg.EnableWarm); err != nil {
			return nil, err
		}
		if wants[i], err = expectedDigest(specs[i]); err != nil {
			return nil, err
		}
		audit.want[wants[i]] = true
	}

	var sum cluster.Summary
	err = e.timed(func() error {
		sp := e.tr.Begin("cluster.Play")
		err := c.Play(in.arrivals, imgs, clusterExec)
		e.tr.End(sp)
		if err != nil {
			return err
		}
		sp = e.tr.Begin("cluster.Run")
		eng.Run()
		e.tr.End(sp)
		sp = e.tr.Begin("cluster.Summarize")
		sum = c.Summarize()
		e.tr.End(sp)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Every host's measured-image cache must predict, for every image it
	// planned, the digest the benchmark computed on its own; the fleet
	// refuses any boot whose PSP measurement differs from its cache's
	// prediction, so together the two give every served boot's digest.
	var acc fleetAcc
	for _, s := range c.Shards() {
		acc.add(s.Orch.Metrics(), s.Cache.Stats())
	}
	planned := 0
	for i, spec := range specs {
		key, _ := fleet.KeyOf(spec)
		for _, s := range c.Shards() {
			if !s.Cache.Contains(key) {
				continue
			}
			planned++
			if mi := s.Cache.Get(key); mi.Digest != wants[i] {
				return nil, fmt.Errorf("%s plans image %d as %x, expected %x", s.Name, i, mi.Digest[:8], wants[i][:8])
			}
		}
	}
	if planned == 0 {
		return nil, fmt.Errorf("no host planned any registered image: the benchmark's image spec no longer matches the fleet's")
	}
	for _, m := range sampled {
		if m.Launch != nil && m.Launch.State() == psp.StateRunning {
			audit.observe(m)
		}
	}
	if audit.bad != nil {
		return nil, audit.bad
	}
	if audit.checked == 0 {
		return nil, fmt.Errorf("no sampled guest finished its launch")
	}

	out := clusterOutput{Summary: sum}
	fleetFailed := 0
	for _, h := range sum.PerHost {
		fleetFailed += h.Failed
	}
	layer := acc.layer()
	for k, v := range map[string]float64{
		"cluster.hit_rate":           sum.HitRate,
		"cluster.queue_max":          float64(sum.QueueMax),
		"cluster.deferred":           float64(sum.Deferred),
		"cluster.shed":               float64(sum.Shed),
		"cluster.warm_captures":      float64(sum.WarmPool.Captures),
		"cluster.warm_adoptions":     float64(sum.WarmPool.Adoptions),
		"artifact.repl_local_hits":   float64(sum.Replication.LocalHits),
		"artifact.repl_waits":        float64(sum.Replication.Waits),
		"artifact.repl_peer_bytes":   float64(sum.Replication.PeerBytes),
		"artifact.repl_origin_bytes": float64(sum.Replication.OriginBytes),
	} {
		layer[k] = v
	}
	if broker != nil {
		bs, err := broker.Stats()
		if err != nil {
			return nil, err
		}
		ps := broker.Policy().Stats()
		out.Broker, out.Policy = &bs, &ps
		if err := reconcileGates(sum, bs, fleetFailed); err != nil {
			return nil, err
		}
		denials := 0
		for _, n := range bs.Denials {
			denials += n
		}
		layer["kbs.grants"] = float64(bs.Grants)
		layer["kbs.denials"] = float64(denials)
		layer["kbs.chain_hit_ratio"] = ratio(bs.ChainHits, bs.ChainMiss)
		layer["kbs.verdict_hit_ratio"] = ratio(bs.VerdictHit, bs.VerdictMis)
		layer["policy.evals"] = float64(ps.Evals)
		layer["policy.denials"] = float64(ps.Denials)
		layer["policy.store_version"] = float64(ps.Version)
	}
	if storm != nil {
		st := sum.Storm
		if st == nil {
			return nil, fmt.Errorf("the storm never fired")
		}
		if st.TaintedWarmServed != 0 {
			return nil, fmt.Errorf("%d forked boots served from revoked donors", st.TaintedWarmServed)
		}
		layer["cluster.storm_to_green_virtual_ms"] = ms(time.Duration(st.MakespanToGreenNs))
		layer["cluster.storm_reseeds"] = float64(st.Reseeds)
		layer["cluster.storm_tainted_serves"] = float64(st.TaintedWarmServed)
	}
	return &outcome{
		attempted: sum.Submitted,
		served:    sum.Served,
		failures: map[string]int{
			"shed":            sum.Shed,
			"dispatch_denied": sum.PolicyDenied,
			"fleet_failed":    fleetFailed,
		},
		notes:    denialNotes(sum),
		latP50:   time.Duration(sum.Latency.P50Ns),
		latP99:   time.Duration(sum.Latency.P99Ns),
		samples:  sum.Served,
		makespan: time.Duration(sum.MakespanNs),
		output:   out,
		layer:    layer,
		fixture:  &fixture{preset: variant(base, 0), spec: specs[0], initrdN: in.initrdBytes, warm: cfg.EnableWarm, broker: broker},
	}, nil
}

func ratio(hit, miss int) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}

// denialNotes lists every refusal the trust plane issued, by gate and
// reason. Retried exchanges appear here too, so the counts explain the
// failures without summing to them.
func denialNotes(sum cluster.Summary) map[string]int {
	notes := map[string]int{}
	for k, v := range sum.DispatchDenials {
		notes["dispatch/"+k] = v
	}
	for k, v := range sum.PolicyDenials {
		notes["fleet/"+k] = v
	}
	for k, v := range sum.Denials {
		notes["kbs/"+k] = v
	}
	return notes
}

// reconcileGates checks the three admission ledgers against each other:
// the dispatch gate's per-reason map sums to its refusal count, every
// broker denial was seen by exactly one fleet and the reverse, and every
// failed boot belongs to the dispatch gate or to a fleet.
func reconcileGates(sum cluster.Summary, bs kbs.Stats, fleetFailed int) error {
	dispatch := 0
	for _, v := range sum.DispatchDenials {
		dispatch += v
	}
	if dispatch != sum.PolicyDenied {
		return fmt.Errorf("dispatch denial map sums to %d, PolicyDenied = %d", dispatch, sum.PolicyDenied)
	}
	for reason, n := range bs.Denials {
		if got := sum.Denials[reason]; got != n {
			return fmt.Errorf("broker denied %d %s exchanges, fleets observed %d", n, reason, got)
		}
	}
	for reason, n := range sum.Denials {
		if reason == string(kbs.ReasonUnavailable) {
			return fmt.Errorf("%d breaker fast-fails in a fault-free run", n)
		}
		if got := bs.Denials[reason]; got != n {
			return fmt.Errorf("fleets observed %d %s denials, broker issued %d", n, reason, got)
		}
	}
	if sum.Failed != sum.PolicyDenied+fleetFailed {
		return fmt.Errorf("failed = %d, want dispatch %d + fleet %d", sum.Failed, sum.PolicyDenied, fleetFailed)
	}
	return nil
}
