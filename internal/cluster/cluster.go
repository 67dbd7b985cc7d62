// Package cluster models a datacenter of simulated SEV hosts inside one
// virtual-time domain. Each host shard is a full machine — its own PSP
// command queue (the paper's Fig. 12 serialization point), its own RMP,
// a BIOS-limited ASID pool, a private measured-image cache, and a fleet
// orchestrator with a per-host key-broker circuit breaker. Above the
// shards sits a cluster scheduler: boots arrive open-loop into a bounded
// admission queue, a dispatcher places each one through a pluggable
// policy (random, binpack, asid-pressure, cache-affinity), and the
// chosen host pays for whatever image state it is missing through the
// artifact replication layer — raw kernel/initrd bytes for a cold boot,
// or a sealed fork container from the cross-host warm pool.
//
// Everything runs on one sim.Engine, so an 8-host, 512-boot run is a
// single deterministic event sequence: same seed, same placement, same
// makespan, bit for bit.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
	"github.com/severifast/severifast/internal/telemetry"
	"github.com/severifast/severifast/internal/trace"
)

// Errors returned by Submit.
var (
	// ErrQueueFull is cluster-level backpressure: the admission queue is
	// at capacity and the request is shed.
	ErrQueueFull = errors.New("cluster: admission queue full")
	// ErrClosed reports submission after Close.
	ErrClosed = errors.New("cluster: closed")
)

// Config sizes the cluster.
type Config struct {
	// Hosts is the number of simulated machines. Defaults to 1.
	Hosts int
	// ASIDsPerHost is each host's SEV ASID budget — the hard cap on
	// concurrently live encrypted guests (BIOS SEV-ES limit). Defaults
	// to 8.
	ASIDsPerHost int
	// WorkersPerHost is each shard's boot concurrency. Defaults to 2.
	WorkersPerHost int
	// QueueDepth bounds the cluster admission queue; submissions beyond
	// it are shed. 0 means unbounded.
	QueueDepth int
	// Policy places boots onto hosts. Defaults to asid-pressure.
	Policy Policy
	// EnableWarm turns on warm tiers everywhere and the cross-host warm
	// pool: the first host to capture an image's fork container publishes
	// it under its seal, and other hosts adopt it over the fabric instead
	// of cold booting.
	EnableWarm bool
	// FabricSlots bounds concurrent transfers cluster-wide. Defaults
	// to 4.
	FabricSlots int
	// Seed drives per-host PSP identities and randomized placement.
	Seed int64
	// Telemetry, when set, receives cluster gauges (ASID occupancy, PSP
	// queue depth), replication counters, and every shard's fleet
	// instruments. Nil disables the mirror.
	Telemetry *telemetry.Registry

	// Admission is the policy engine the dispatcher consults before a
	// placed boot spends any staging or boot work, and which every
	// shard's fleet re-checks at serve time. Nil defaults to
	// policy.Permissive(). Point it at the broker's engine
	// (kbs.Broker.PolicyEngine) so cluster dispatch, fleet admission,
	// and key release all answer to the same trust domains — a
	// revocation filed at a virtual instant then flips all three gates
	// at once.
	Admission *policy.Engine

	// KBS, when set, gates every boot on every host behind the
	// attest→key-release exchange. Authority must be set too; each host
	// is enrolled as its own platform ("chip-h<i>") so per-host TCB
	// state is distinguishable at the broker.
	KBS       kbs.Service
	Authority *kbs.Authority
	// TCB is the firmware level hosts are enrolled at.
	TCB kbs.TCB
	// Generations partitions hosts into chip generations: host i carries
	// generation "gen<i mod Generations>". A revocation storm
	// (InstallStorm) distrusts a whole generation at one virtual instant.
	// Defaults to 1 — every host is gen0.
	Generations int
	// WrapKBS, when set, wraps each host's view of the broker — the
	// hook tests use to break one host's transport without touching the
	// others' (per-host circuit breaker isolation).
	WrapKBS func(host int, svc kbs.Service) kbs.Service
	// AgentSeed derives guest attestation agent keys; each host offsets
	// it so agents are unique cluster-wide.
	AgentSeed int64
	// Breaker arms each shard's own key-broker circuit breaker. Per
	// host, deliberately: one degraded host's transport failures must
	// not open the breaker for the whole cluster.
	Breaker fleet.BreakerPolicy
	// Retry bounds per-boot recovery from transient faults.
	Retry fleet.RetryPolicy

	// MemSize is the guest memory of every image on every host; zero
	// means the launch default.
	MemSize uint64
}

func (c *Config) fillDefaults() {
	if c.Hosts <= 0 {
		c.Hosts = 1
	}
	if c.ASIDsPerHost <= 0 {
		c.ASIDsPerHost = 8
	}
	if c.WorkersPerHost <= 0 {
		c.WorkersPerHost = 2
	}
	if c.FabricSlots <= 0 {
		c.FabricSlots = 4
	}
	if c.Generations <= 0 {
		c.Generations = 1
	}
	if c.Policy == nil {
		c.Policy, _ = PolicyByName("asid-pressure", c.Seed)
	}
	if c.Admission == nil {
		c.Admission = policy.Permissive()
	}
}

// HostShard is one simulated machine: a kvm.Host (PSP, RMP, cost model)
// plus the per-host scheduling state the cluster adds on top.
type HostShard struct {
	Index int
	// Name is "h<index>", used as the host label everywhere: process
	// names, telemetry attributes, the renamed PSP resource track.
	Name string
	Host *kvm.Host
	Orch *fleet.Orchestrator
	// Cache is this host's private measured-image cache (per-host by
	// design: measurement amortization is a host-local effect the
	// cache-affinity policy exploits).
	Cache *fleet.Cache

	asid  *asidPool
	boots int
	tiers [3]int

	// Storm state. gen is the host's chip generation ("gen<i mod
	// Generations>"); tcb its current firmware level, stepped by rolling
	// drift; revoked flips when a revocation storm distrusts the
	// generation. All mutated only from simulation processes.
	gen     string
	tcb     kbs.TCB
	revoked bool
}

func (s *HostShard) pspQueue() int { return s.Host.PSP.Resource().QueueLen() }

// Image is a cluster-registered function image: one fleet.Image per
// host (same content address everywhere) plus the replication-layer
// identities of its artifacts and, once captured, its published fork
// container.
type Image struct {
	Name string

	perHost []*fleet.Image
	key     fleet.Key

	kernelKey  artifact.BlobKey
	kernelSize int
	initrdKey  artifact.BlobKey
	initrdSize int

	// Warm-pool state, set by the first host to capture (and again by the
	// first to re-capture after a withdrawal). The process holds the warm
	// parent once, as the publisher's fork container; sealedKey is its
	// seal at publication and sealedSize the length its sealed transport
	// encoding would have, which is what the fabric is charged for.
	published  bool
	sealedKey  artifact.BlobKey
	sealedSize int
	fork       *snapshot.Fork

	// Donor provenance for storm hygiene. donorHost is the publisher of
	// the sealed container (-1 until published); donorOf[h] is the host
	// whose admitted guest seeded host h's warm pool — h itself for a
	// local capture, donorHost for an adoption, -1 while unseeded. A
	// revocation storm evicts every pool whose donor is now distrusted.
	donorHost int
	donorOf   []int
}

// Request is one boot demand against the cluster.
type Request struct {
	Tenant string
	Image  *Image
	// Exec is the function service time once the VM is up; the guest
	// holds its ASID until it finishes.
	Exec time.Duration
}

type pending struct {
	Request
	admitted sim.Time
	id       int
}

// Cluster is the datacenter scheduler. Like the fleet orchestrator, all
// mutable state is touched only by simulation processes of one engine,
// so it needs no locking.
type Cluster struct {
	eng    *sim.Engine
	cfg    Config
	shards []*HostShard
	repl   *artifact.Replicator
	images []*Image

	queue    sim.Queue[*pending]
	queueMax int
	closed   bool
	prepping int
	nextID   int
	deferred int

	disp       *sim.Proc
	dispParked bool
	// idlePrep are the standing prep processes waiting for a job, and
	// preps counts those started. A prep process per boot would build a
	// coroutine and a goroutine for every boot.
	idlePrep []*prepper
	preps    int

	submitted int
	shed      int
	served    int
	failed    int
	tierLat   [3]trace.Series
	allLat    trace.Series

	captures       int
	adoptions      int
	publishedBytes int64
	policyDenied   int

	// floor tracks the broker's current minimum-TCB floor (Config.TCB
	// until a storm bumps it) — the reference the tcb-aware policy
	// compares host firmware against.
	floor           kbs.TCB
	dispatchDenials map[string]int
	storm           *stormState

	firstErr error
}

// New assembles the hosts and spawns the dispatcher on eng. Submit work
// from arrival processes, call Close after the last submission, then
// eng.Run drains everything.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	if cfg.KBS != nil && cfg.Authority == nil {
		return nil, errors.New("cluster: Config.KBS set without Authority")
	}
	c := &Cluster{
		eng:   eng,
		cfg:   cfg,
		repl:  artifact.NewReplicator(cfg.Hosts, cfg.FabricSlots, artifact.DefaultTransferCost(), cfg.Telemetry),
		floor: cfg.TCB,
	}
	for i := 0; i < cfg.Hosts; i++ {
		name := fmt.Sprintf("h%d", i)
		// Per-host PSP identity: distinct seed, distinct chip.
		host := kvm.NewHost(eng, costmodel.Default(), cfg.Seed+int64(i+1))
		host.Telemetry = cfg.Telemetry
		host.PSP.Resource().Rename("psp-" + name)
		cache := fleet.NewCache()
		fcfg := fleet.Config{
			Name:       name,
			Workers:    cfg.WorkersPerHost,
			EnableWarm: cfg.EnableWarm,
			Cache:      cache,
			Telemetry:  cfg.Telemetry,
			Breaker:    cfg.Breaker,
			Retry:      cfg.Retry,
			Admission:  cfg.Admission,
			AgentSeed:  cfg.AgentSeed + int64(i)<<20,
			MemSize:    cfg.MemSize,
		}
		if cfg.KBS != nil {
			svc := cfg.KBS
			if cfg.WrapKBS != nil {
				svc = cfg.WrapKBS(i, svc)
			}
			fcfg.KBS = svc
			fcfg.Enrollment = cfg.Authority.Enroll(host.PSP, "chip-"+name, cfg.TCB)
		}
		c.shards = append(c.shards, &HostShard{
			Index: i,
			Name:  name,
			Host:  host,
			Orch:  fleet.New(eng, host, fcfg),
			Cache: cache,
			asid:  newASIDPool(name, cfg.ASIDsPerHost, cfg.Telemetry),
			gen:   fmt.Sprintf("gen%d", i%cfg.Generations),
			tcb:   cfg.TCB,
		})
	}
	eng.Go("cluster-dispatch", c.dispatch)
	return c, nil
}

// Shards exposes the hosts; read their stats after eng.Run returns.
func (c *Cluster) Shards() []*HostShard { return c.shards }

// Err returns the cluster's own first fault: a storm whose revocation or
// floor bump failed to file, or a warm container that failed to seal.
// A shard's failed boots are not faults of the cluster — storms and
// broker denials cause them on purpose — so they stay in that shard's
// Orch.Err and in the summary's counts.
func (c *Cluster) Err() error { return c.firstErr }

// fail records err as the cluster's fault unless one came first.
func (c *Cluster) fail(err error) {
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// RegisterImage registers the image on every shard (one content
// address, N host-local views) and announces its artifacts to the
// replication layer's origin registry. No host holds the bytes locally
// yet: the first boot on each host pays the pull.
func (c *Cluster) RegisterImage(name string, preset kernelgen.Preset, initrd []byte) (*Image, error) {
	img := &Image{Name: name, donorHost: -1, donorOf: make([]int, len(c.shards))}
	for i := range img.donorOf {
		img.donorOf[i] = -1
	}
	for _, s := range c.shards {
		fi, err := s.Orch.RegisterImage(name, preset, initrd)
		if err != nil {
			return nil, err
		}
		img.perHost = append(img.perHost, fi)
	}
	spec := img.perHost[0].Spec()
	img.key = img.perHost[0].CacheKey()
	img.kernelKey = artifact.BlobKey(artifact.Intern(spec.Kernel).Digest())
	img.kernelSize = len(spec.Kernel)
	c.repl.Register(img.kernelKey, img.kernelSize)
	if len(spec.Initrd) > 0 {
		img.initrdKey = artifact.BlobKey(artifact.Intern(spec.Initrd).Digest())
		img.initrdSize = len(spec.Initrd)
		c.repl.Register(img.initrdKey, img.initrdSize)
	}
	c.images = append(c.images, img)
	return img, nil
}

// Submit offers a request from a simulation process. It never blocks:
// the request is queued (waking the dispatcher) or shed with
// ErrQueueFull / ErrClosed, and the open-loop arrival source moves on.
func (c *Cluster) Submit(p *sim.Proc, req Request) error {
	c.submitted++
	c.cfg.Telemetry.Counter("severifast_cluster_submitted_total").Inc()
	if c.closed {
		c.shedOne()
		return ErrClosed
	}
	if c.cfg.QueueDepth > 0 && c.queue.Len() >= c.cfg.QueueDepth {
		c.shedOne()
		return ErrQueueFull
	}
	c.queue.Push(&pending{Request: req, admitted: p.Now(), id: c.nextID})
	c.nextID++
	if c.queue.Len() > c.queueMax {
		c.queueMax = c.queue.Len()
	}
	c.cfg.Telemetry.Gauge("severifast_cluster_queue_depth_max").Max(float64(c.queue.Len()))
	c.wakeDispatch()
	return nil
}

func (c *Cluster) shedOne() {
	c.shed++
	c.cfg.Telemetry.Counter("severifast_cluster_shed_total").Inc()
}

// Close stops admission; the dispatcher drains the queue and in-flight
// preps, then closes every shard so eng.Run can terminate.
func (c *Cluster) Close() {
	c.closed = true
	c.wakeDispatch()
}

// dispatch is the single placement loop: pop a request, pick a host
// with a free ASID through the policy, pin the ASID, and hand the
// request to an idle prep process. It parks when there is nothing to
// place — no queued work, or no host with capacity — and is woken by
// Submit, ASID releases, and prep completions.
func (c *Cluster) dispatch(p *sim.Proc) {
	c.disp = p
	avail := make([]*HostShard, 0, len(c.shards))
	for {
		if c.queue.Len() == 0 {
			if c.closed && c.prepping == 0 {
				for _, s := range c.shards {
					s.Orch.Close()
				}
				// Every prep process has gone back to idlePrep by now.
				for _, pr := range c.idlePrep {
					pr.w.Close()
				}
				c.idlePrep = nil
				c.disp = nil
				return
			}
			c.parkDispatch(p)
			continue
		}
		avail = avail[:0]
		for _, s := range c.shards {
			if s.asid.free() > 0 {
				avail = append(avail, s)
			}
		}
		if len(avail) == 0 {
			// Every ASID in the datacenter is pinned: wait for a release.
			c.parkDispatch(p)
			continue
		}
		r := c.queue.Peek()
		s := c.cfg.Policy.Place(c, r.Image, avail)
		if s == nil {
			// The policy declined every candidate — all remaining
			// capacity sits on platforms it refuses to use (revoked, or
			// below the TCB floor mid-drift). Hold the boot until
			// capacity moves rather than burning it on a guaranteed
			// denial; if nothing is in flight the picture can never
			// improve, so force the placement and let the admission gate
			// account the refusal.
			if c.prepping > 0 || c.asidsInUse() > 0 {
				c.deferred++
				c.cfg.Telemetry.Counter("severifast_cluster_deferred_total").Inc()
				c.parkDispatch(p)
				continue
			}
			s = avail[0]
		}
		c.queue.Pop()
		s.asid.acquire()
		c.samplePSPDepth(s)
		c.prepping++
		c.startPrep(s, r)
	}
}

// prepper is a standing prep process and the job it was last handed.
type prepper struct {
	w   *sim.Worker
	run func(*sim.Proc) // preps s, r, then idles on the free list
	s   *HostShard
	r   *pending
}

// startPrep hands the boot to an idle prep process, starting a new one
// only when none is idle, so there are never more than the most preps
// that have been in flight at once — each holds an ASID. Waking an idle
// process takes the same event slot that starting a new one would.
func (c *Cluster) startPrep(s *HostShard, r *pending) {
	var pr *prepper
	if n := len(c.idlePrep); n > 0 {
		pr = c.idlePrep[n-1]
		c.idlePrep[n-1] = nil
		c.idlePrep = c.idlePrep[:n-1]
	} else {
		pr = &prepper{w: sim.NewWorker(c.eng, fmt.Sprintf("cluster-prep-%d", c.preps))}
		c.preps++
		pr.run = func(p *sim.Proc) {
			s, r := pr.s, pr.r
			pr.s, pr.r = nil, nil
			c.prep(p, s, r)
			c.idlePrep = append(c.idlePrep, pr)
		}
	}
	pr.s, pr.r = s, r
	pr.w.Run(pr.run)
}

func (c *Cluster) parkDispatch(p *sim.Proc) {
	c.dispParked = true
	p.Park()
}

func (c *Cluster) wakeDispatch() {
	if c.dispParked && c.disp != nil {
		c.dispParked = false
		c.eng.Wake(c.disp)
	}
}

// samplePSPDepth mirrors the host's instantaneous PSP queue depth into
// the registry, sampled at every placement and release — the moments
// the scheduler itself reads the signal.
func (c *Cluster) samplePSPDepth(s *HostShard) {
	q := float64(s.pspQueue())
	h := telemetry.A("host", s.Name)
	c.cfg.Telemetry.Gauge("severifast_cluster_psp_queue_depth", h).Set(q)
	c.cfg.Telemetry.Gauge("severifast_cluster_psp_queue_depth_peak", h).Max(q)
}

// prep runs on a prep process of its own so replication transfers for
// different boots overlap: it stages whatever image state the chosen host
// is missing, then submits the boot to the shard's orchestrator.
func (c *Cluster) prep(p *sim.Proc, s *HostShard, r *pending) {
	simg := r.Image.perHost[s.Index]
	if err := c.admission(p, s, r); err != nil {
		c.bootDone(p, s, r, fleet.TierCold, err)
	} else if err := c.stage(p, s, r.Image, simg); err != nil {
		c.bootDone(p, s, r, fleet.TierCold, err)
	} else if err := s.Orch.Submit(p, fleet.Request{
		Tenant: r.Tenant,
		Image:  simg,
		Exec:   r.Exec,
		Done: func(dp *sim.Proc, tier fleet.Tier, err error) {
			c.bootDone(dp, s, r, tier, err)
		},
		Ended: func() {
			if r.Exec > 0 { // a function's end is a release the PSP queue is sampled at
				c.samplePSPDepth(s)
			}
			c.release(s)
		},
	}); err != nil {
		c.bootDone(p, s, r, fleet.TierCold, err)
	}
	c.prepping--
	c.wakeDispatch()
}

// admission runs the dispatch-side policy gate: a placement whose
// tenant or target platform the policy store distrusts is refused
// before any replication transfer or boot work is spent on it. The
// shard's fleet re-checks the same engine at serve time, so a policy
// mutation landing between dispatch and serve still takes effect.
func (c *Cluster) admission(p *sim.Proc, s *HostShard, r *pending) error {
	ev := policy.Evidence{Tenant: r.Tenant}
	if c.cfg.KBS != nil {
		// Per-host evidence: the shard's own firmware level, not the
		// cluster-wide enrollment default, so rolling drift and floor
		// bumps are visible at the dispatch gate.
		ev.ChipID = "chip-" + s.Name
		ev.TCB = s.tcb.Encode()
		ev.HasPlatform = true
	}
	if _, err := c.cfg.Admission.Evaluate(ev, p.Now()); err != nil {
		c.policyDenied++
		if d := policy.DenialOf(err); d != nil {
			if c.dispatchDenials == nil {
				c.dispatchDenials = make(map[string]int)
			}
			c.dispatchDenials[d.Rule+"/"+string(d.Reason)]++
		}
		c.cfg.Telemetry.Counter("severifast_cluster_policy_denials_total",
			telemetry.A("host", s.Name)).Inc()
		return fmt.Errorf("cluster: dispatch to %s refused: %w", s.Name, err)
	}
	return nil
}

// stage makes the image bootable on the host. If the warm pool has a
// published container and this host's warm tier is cold, the container is
// replicated and adopted, and nothing else is needed: a warm restore never
// touches the raw kernel bytes. Otherwise — including when the
// publication did not survive the transfer or its seal no longer matches —
// the cold path replicates the kernel and initrd.
func (c *Cluster) stage(p *sim.Proc, s *HostShard, img *Image, simg *fleet.Image) error {
	if c.cfg.EnableWarm && img.published && !simg.HasWarm() {
		if err := c.adoptWarm(p, s, img, simg); err != nil {
			return err
		}
	}
	if simg.HasWarm() {
		return nil
	}
	if _, err := c.repl.Fetch(p, s.Index, img.kernelKey); err != nil {
		return err
	}
	if img.initrdSize > 0 {
		if _, err := c.repl.Fetch(p, s.Index, img.initrdKey); err != nil {
			return err
		}
	}
	return nil
}

// adoptWarm replicates the image's published container to the host and
// seeds the host's warm tier from it. The fabric and the host are charged
// for the sealed transport form — the transfer, then the envelope a
// content-addressed transport leaves to re-validate — but what is adopted
// is the publisher's fork container itself, so the integrity check is on
// that: its seal is recomputed and compared with the key it was published
// under, which covers the page table, the digest and — through the fork
// root — every artifact and dirty page a fork on this host will alias. A
// mismatch withdraws the publication; the caller then stages the boot cold
// and the next capture re-publishes.
//
// Both the transfer and the validate charge yield virtual time, and a
// storm may withdraw (even replace) the publication meanwhile. That is not
// a fault of the image: the fetched container is simply no longer the one
// on offer, and the boot goes cold.
func (c *Cluster) adoptWarm(p *sim.Proc, s *HostShard, img *Image, simg *fleet.Image) error {
	key := img.sealedKey
	if _, err := c.repl.Fetch(p, s.Index, key); err != nil {
		return err
	}
	p.Sleep(s.Host.Model.Hash(snapshot.SealedDeltaValidateLen))
	if !img.published || img.sealedKey != key || simg.HasWarm() {
		return nil
	}
	if seal, err := img.fork.Seal(); err != nil || artifact.BlobKey(seal) != key {
		c.withdrawWarm(img)
		return nil
	}
	if err := simg.AdoptWarmFork(img.fork); err != nil {
		return fmt.Errorf("cluster: adopting warm container on %s: %w", s.Name, err)
	}
	img.donorOf[s.Index] = img.donorHost
	c.adoptions++
	c.cfg.Telemetry.Counter("severifast_cluster_warm_adoptions_total",
		telemetry.A("host", s.Name)).Inc()
	return nil
}

// withdrawWarm takes the image's container out of the cross-host pool so
// no further host adopts it; pools already seeded from it are the
// caller's business. The next capture of the image publishes afresh.
func (c *Cluster) withdrawWarm(img *Image) {
	img.published = false
	img.fork = nil
	img.donorHost = -1
}

// bootDone concludes a boot on the shard worker (or prep) process:
// account the outcome and publish the warm pool if this host just seeded
// it. A failed boot frees its ASID here; a served one holds it through
// function execution, which the shard's fleet runs as the request's Exec
// and ends by releasing the guest and then the ASID (fleet.Request.Ended).
func (c *Cluster) bootDone(p *sim.Proc, s *HostShard, r *pending, tier fleet.Tier, err error) {
	if err != nil {
		c.failed++
		c.cfg.Telemetry.Counter("severifast_cluster_failed_total",
			telemetry.A("host", s.Name)).Inc()
		c.release(s)
		return
	}
	lat := p.Now().Sub(r.admitted)
	c.served++
	c.tierLat[tier] = append(c.tierLat[tier], lat)
	c.allLat = append(c.allLat, lat)
	s.boots++
	s.tiers[tier]++
	if c.cfg.EnableWarm && r.Image.perHost[s.Index].HasWarm() && r.Image.donorOf[s.Index] < 0 {
		// A pool seeded by this host's own cold boot (not an adoption) is
		// its own donor.
		r.Image.donorOf[s.Index] = s.Index
	}
	c.stormObserve(p, s, r, tier)
	c.maybePublishWarm(p, s, r.Image)
}

func (c *Cluster) release(s *HostShard) {
	s.asid.release()
	c.wakeDispatch()
}

// asidsInUse sums live guests across the fleet — the dispatcher's "can
// the capacity picture still change" signal for deferred placements.
func (c *Cluster) asidsInUse() int {
	n := 0
	for _, s := range c.shards {
		n += s.asid.inUse
	}
	return n
}

// maybePublishWarm puts a freshly captured fork container into the
// cross-host pool under its seal, announced to the replication layer so
// other hosts fetch it as a peer blob of the sealed transport length (the
// hash pass over that length is charged on the worker that captured it).
// Only the first capture cluster-wide publishes; the container and donor
// context are shared state under the single-engine discipline.
func (c *Cluster) maybePublishWarm(p *sim.Proc, s *HostShard, img *Image) {
	if !c.cfg.EnableWarm || img.published {
		return
	}
	simg := img.perHost[s.Index]
	fork := simg.ForkState()
	if fork == nil {
		return
	}
	seal, err := fork.Seal()
	if err != nil {
		c.fail(fmt.Errorf("cluster: sealing warm container of %q: %w", img.Name, err))
		return
	}
	// Commit the publication before charging the seal pass: the Sleep
	// below may yield the engine, and a second boot concluding meanwhile
	// must see published set or it would seal and publish again.
	img.sealedKey = artifact.BlobKey(seal)
	img.sealedSize = snapshot.SealedLen(fork.Src.NumPages())
	img.fork = fork
	img.donorHost = s.Index
	img.published = true
	c.captures++
	if st := c.storm; st != nil && st.fired {
		st.reseeds++
	}
	c.publishedBytes += int64(img.sealedSize)
	c.repl.Publish(s.Index, img.sealedKey, img.sealedSize)
	c.cfg.Telemetry.Counter("severifast_cluster_warm_publishes_total",
		telemetry.A("host", s.Name)).Inc()
	p.Sleep(s.Host.Model.Hash(img.sealedSize))
}

// Play spawns an open-loop arrival process that replays a generated
// trace against the cluster and closes it after the last submission.
// Arrival image indices are taken modulo the registered image count.
func (c *Cluster) Play(arrivals []Arrival, images []*Image, exec time.Duration) error {
	if len(images) == 0 {
		return errors.New("cluster: Play needs at least one image")
	}
	c.eng.Go("cluster-arrivals", func(p *sim.Proc) {
		var at time.Duration
		for _, a := range arrivals {
			if gap := a.At - at; gap > 0 {
				p.Sleep(gap)
			}
			at = a.At
			_ = c.Submit(p, Request{
				Tenant: fmt.Sprintf("t%d", a.Tenant),
				Image:  images[a.Image%len(images)],
				Exec:   exec,
			})
		}
		c.Close()
	})
	return nil
}
