// Package fleet is a concurrent microVM boot orchestrator: requests are
// admitted into a bounded worker pool with per-tenant fair queueing and
// backpressure, and each boot is served through the fastest available
// tier — a warm fork of a measured donor's shared-key snapshot (§7), a
// cold boot with memoized measurement artifacts (the measured-image
// cache), or a full cold boot including the measurement pass. All
// scheduling, queueing, and retry backoff runs in internal/sim virtual
// time, so fleet runs are deterministic and PSP contention between
// concurrent launches emerges from the shared host model rather than
// from host-OS scheduling.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/attest"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
	"github.com/severifast/severifast/internal/telemetry"
)

// Errors returned by Submit.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity.
	ErrQueueFull = errors.New("fleet: queue full")
	// ErrClosed reports submission after Close.
	ErrClosed = errors.New("fleet: orchestrator closed")
	// ErrDigestMismatch reports a PSP-measured launch digest that differs
	// from the measured-image cache's prediction.
	ErrDigestMismatch = errors.New("fleet: launch digest mismatch")
	// ErrDeadlineExceeded reports a boot abandoned because its per-request
	// virtual-time budget (Config.BootDeadline) ran out before an attempt
	// could finish — including when the remaining budget cannot cover the
	// next retry backoff.
	ErrDeadlineExceeded = errors.New("fleet: boot deadline exceeded")
	// ErrKBSUnreachable marks a key-broker transport failure: the broker
	// did not answer at all (as opposed to answering with a denial). It is
	// transient — the retry loop retries it with backoff — and it feeds
	// the circuit breaker's failure count.
	ErrKBSUnreachable = errors.New("fleet: key broker unreachable")
	// ErrReattest marks an exchange denied while the host's enrollment was
	// being swapped underneath it (Reenroll mid-exchange): the evidence
	// straddled two platform identities, so the denial is not a verdict on
	// either. It is transient — the retry re-runs the exchange under the
	// settled identity, bounded by the ordinary retry/backoff budget.
	ErrReattest = errors.New("fleet: re-attestation required")
	// ErrWarmInvalidated marks a warm boot whose donor pool was evicted
	// between fork and serve (a revocation storm invalidating the donor's
	// admission): the forked guest must never go live. It is transient —
	// the retry finds the pool unseeded and boots cold.
	ErrWarmInvalidated = errors.New("fleet: warm pool invalidated mid-boot")
)

// errNoForkContainer refuses a warm-tier adoption that carries no fork
// container (or no donor launch context to inherit key and digest from).
var errNoForkContainer = errors.New("fleet: warm adoption without a fork container")

// Config sizes the orchestrator.
type Config struct {
	// Name prefixes the orchestrator's simulation process names
	// ("<name>-worker-3", "<name>-exec-17"). Defaults to "fleet". A
	// cluster running one orchestrator per host gives each shard a
	// distinct name so telemetry tracks stay per-host instead of
	// interleaving on shared track names.
	Name string
	// Workers is the boot concurrency (pool size). Defaults to 1.
	Workers int
	// QueueDepth bounds queued (not yet dispatched) requests across all
	// tenants; submissions beyond it are rejected. 0 means unbounded.
	QueueDepth int
	// EnableWarm turns on the warm tier: after the first successful cold
	// boot of an image the orchestrator captures a fork-ready shared-key
	// snapshot, and later boots of that image fork from it (CoW page
	// aliasing with the donor's launch digest inherited). Implies
	// launching with a key-sharing policy, which is visible in the
	// measurement.
	EnableWarm bool
	// WarmPoolSize caps the standby pool Prewarm may build per image
	// (forked guests held ready so a warm boot pops a machine instead of
	// forking inline). 0 disables standbys: every warm boot forks on
	// demand.
	WarmPoolSize int
	// Standalone disables the worker pool: no worker processes are
	// spawned and Submit rejects everything. Callers drive boots
	// synchronously with Serve from their own processes instead. The
	// severifast.Pool facade uses it so the engine fully drains between
	// Boot calls (a parked worker would deadlock the engine's drain).
	Standalone bool
	// Retry bounds recovery from transient failures.
	Retry RetryPolicy
	// Cache is the measured-image cache. Nil allocates a private one;
	// pass a shared cache to amortize measurement across shards.
	Cache *Cache

	// Telemetry, when set, receives the fleet's counters and latency
	// series as registry instruments, per-boot "fleet.boot" spans on the
	// worker tracks, and "kbs.exchange" spans on the kbs track. A boot's
	// span tree needs only the host's registry (kvm.Host.Telemetry); the
	// engine's tracer (sim.Engine.SetTracer) adds scheduler spans, such as
	// PSP queueing, and nothing else. Nil disables the mirror.
	Telemetry *telemetry.Registry

	// BootDeadline, when positive, is each request's virtual-time budget
	// from admission to VM up. A request whose budget is spent — or whose
	// remaining budget cannot cover the next retry backoff — fails with
	// ErrDeadlineExceeded instead of holding a worker.
	BootDeadline time.Duration
	// Breaker, when Threshold > 0, arms the key-broker circuit breaker:
	// consecutive broker transport failures open it, and while open every
	// exchange fails fast with a kbs "unavailable" denial instead of
	// burning the retry budget against a dead broker.
	Breaker BreakerPolicy
	// DegradedFallback enables the degraded-mode boot policy: on a launch
	// digest mismatch the orchestrator re-hashes the canonical image bytes
	// against the registration-time component hashes; if they are intact
	// the measured-image cache entry itself was poisoned, so the entry is
	// evicted and the boot retried once on the cold path with a fresh
	// plan. Mismatching image bytes still fail the boot — only provable
	// cache poisoning is recovered.
	DegradedFallback bool
	// InsecureSkipDigestCheck disables the launch-digest comparison
	// against the measured-image cache's prediction. It exists only so
	// tests and the chaos harness can model a broken verifier and prove
	// the tamper oracle reports an ESCAPE; never set it in real
	// configurations.
	InsecureSkipDigestCheck bool
	// OnServed, when set, observes every successfully served boot with
	// its machine, after attestation. Tests and the chaos oracle use it
	// to audit the launch digests of boots that actually went live.
	OnServed func(p *sim.Proc, m *kvm.Machine, tier Tier)

	// Admission is the policy engine every request must pass before a
	// worker attempts its first boot — and again at serve time if the
	// policy store mutated mid-boot (certificates are pinned to the
	// store version that minted them). Nil defaults to
	// policy.Permissive(), which grants everything: the gate is always
	// on the path, only the policy varies. Share the broker's engine
	// (kbs.Broker.PolicyEngine) so fleet admission and key release
	// answer to the same trust domains.
	Admission *policy.Engine

	// KBS, when set, gates every boot behind an attest→key-release
	// exchange against the key broker: the guest requests a challenge,
	// the PSP signs a report binding the nonce and the guest's ephemeral
	// key, and the boot only succeeds once the broker releases the
	// tenant secret. Reference launch digests are provisioned into the
	// broker automatically from the measured-image cache.
	KBS kbs.Service
	// Enrollment is the host platform's identity under the broker's key
	// authority: the chip ID, TCB and VCEK chain its Enroll issued for
	// the host PSP. Required when KBS is set.
	Enrollment *kbs.Enrollment
	// AgentSeed derives each boot's guest attestation agent key.
	AgentSeed int64

	// MemSize is the guest memory of the images RegisterImage registers;
	// zero means the launch default.
	MemSize uint64
}

func (c *Config) fillDefaults() {
	if c.Name == "" {
		c.Name = "fleet"
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Cache == nil {
		c.Cache = NewCache()
	}
	if c.Admission == nil {
		c.Admission = policy.Permissive()
	}
}

// RetryPolicy bounds retries of transient failures. Backoff is
// exponential in virtual time: attempt k (0-based) sleeps Backoff<<k
// before retrying.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 means a
	// request fails at its first transient failure.
	Max int
	// Backoff is the base delay before the first retry.
	Backoff time.Duration
}

// delay returns the virtual-time backoff before retry attempt k (0-based).
func (r RetryPolicy) delay(k int) time.Duration {
	if r.Backoff <= 0 {
		return 0
	}
	if k > 20 {
		k = 20 // cap the shift; virtual time, but keep it sane
	}
	return r.Backoff << uint(k)
}

// Image is a registered function image: the artifacts plus the memoized
// content address. Registration does the host-side hash pass once; every
// subsequent boot reuses the key.
type Image struct {
	Name string

	launch firecracker.Config
	spec   ImageSpec
	key    Key
	hashes measure.ComponentHashes

	// Warm-tier state, populated after the first cold boot (or adopted
	// from another host): the fork container is the warm parent, and its
	// donor's launch context holds the shared key and measured digest.
	fork      *snapshot.Fork
	capturing bool
	// warmEpoch bumps on every EvictWarm. In-flight warm boots capture it
	// at fork time and re-check it at serve time, so a pool invalidated
	// mid-boot (donor admitted under a since-revoked claim) can never
	// serve a guest forked from the stale donor.
	warmEpoch int
}

// CacheKey returns the image's content address in the measured-image cache.
func (img *Image) CacheKey() Key { return img.key }

// Spec returns the image's launch spec. The Kernel/Initrd slices are the
// canonical interned buffers; treat them as read-only.
func (img *Image) Spec() ImageSpec { return img.spec }

// HasWarm reports whether the image's warm tier is seeded: either this
// orchestrator captured a fork container after a cold boot, or one was
// adopted from another host via AdoptWarmFork.
func (img *Image) HasWarm() bool { return img.fork != nil }

// WarmState returns the warm parent's ciphertext transport image and the
// fork's donor machine, whose launch context holds the shared
// memory-encryption key, or nils if the warm tier is not seeded. The image
// is not held anywhere: each call materialises it from the parked donor
// (snapshot.Capture — one AES pass over the resident pages) and retains
// nothing, so it is for the consumers that encode ciphertext (an
// out-of-process snapshot), never a boot path. A donor whose pages cannot
// be exported also yields nils.
func (img *Image) WarmState() (*snapshot.Image, *kvm.Machine) {
	if img.fork == nil {
		return nil, nil
	}
	donor := img.fork.Donor
	snap, err := snapshot.Capture(nil, donor)
	if err != nil {
		return nil, nil
	}
	return snap, donor
}

// ForkState returns the image's fork container — the one representation
// of its warm parent — or nil when the warm tier is unseeded. A cluster
// replicating the warm pool publishes the container under its seal
// (snapshot.Fork.Seal) and hands the same container to adopting hosts.
func (img *Image) ForkState() *snapshot.Fork { return img.fork }

// AdoptWarmFork seeds the image's warm tier from another host's capture:
// fork is the donor host's fork container, whose seal the caller has
// checked, and whose donor's launch context carries the shared key.
// Adoption models the sealed-channel key transport of a cross-host warm
// pool; subsequent boots of the image on this orchestrator fork instead of
// cold-booting, attesting with the donor's measured digest. A warm tier
// that is already seeded is left untouched. The fork container is the only
// representation of a warm parent: one without a fork source, a donor or
// the donor's launch context is refused, never downgraded to ciphertext
// replay.
func (img *Image) AdoptWarmFork(fork *snapshot.Fork) error {
	if fork == nil || fork.Src == nil || fork.Donor == nil || fork.Donor.Launch == nil {
		return fmt.Errorf("%w: image %q", errNoForkContainer, img.Name)
	}
	if img.fork == nil {
		img.fork = fork
	}
	return nil
}

// Request is one boot demand.
type Request struct {
	Tenant string
	Image  *Image
	// Exec is the function service time once the VM is up. It is a timer
	// on the engine, not a process: the worker returns to the pool after
	// boot and the guest lives on until the timer fires.
	Exec time.Duration
	// Done, when set, is invoked on the worker process once the boot
	// concludes (before function execution): tier is the path served and
	// err is nil on success, the final error otherwise.
	Done func(p *sim.Proc, tier Tier, err error)
	// Ended, when set, is invoked when a served request ends: from the
	// engine's event once Exec has run, or on the worker right after Done
	// when there is no Exec, so it runs on no process of its own and must
	// not park. The fleet has let go of the guest by then; a caller
	// holding something for the guest's lifetime (the cluster's ASID)
	// frees it here.
	Ended func()
}

// request is a queued Request with admission bookkeeping.
type request struct {
	Request
	admitted sim.Time
	id       int
	// cert is the request's admission certificate; re-validated (and
	// re-evaluated when stale) before the boot goes live.
	cert *policy.Certificate
	// warmEpoch is the image's warm-pool epoch captured when this
	// attempt's warm branch began; see Image.warmEpoch.
	warmEpoch int
}

// Orchestrator is the fleet scheduler. All its mutable state is touched
// only by simulation processes of one engine (which run one at a time), so
// it needs no locking; the exception is the Cache, which is safe to share
// across orchestrators on different goroutines.
type Orchestrator struct {
	eng  *sim.Engine
	host *kvm.Host
	cfg  Config
	met  *Metrics
	brk  *breaker

	queues map[string]*sim.Queue[*request] // per-tenant FIFO
	ring   []string                        // tenant round-robin order
	rrNext int
	queued int
	nextID int
	closed bool

	// planning single-flights the measurement pass within this shard:
	// workers wanting a key some other worker is already hashing wait on
	// its signal instead of duplicating the work.
	planning map[Key]*sim.Signal

	// standby holds prewarmed forked guests per image (Prewarm fills it,
	// warm boots drain it). Only populated when Config.WarmPoolSize > 0.
	standby map[Key][]*kvm.Machine

	// held is a standalone orchestrator's served guests whose requests have
	// ended: the caller reads the guest OnServed gave it after Serve
	// returns, so they go back to the host at its next Serve or at Close.
	held []*kvm.Machine

	idle []*sim.Proc // parked workers

	// captureFork is snapshot.CaptureFork; a field so a test can make one
	// capture fail, which no simulated guest otherwise does.
	captureFork func(*sim.Proc, *kvm.Machine, [32]byte) (*snapshot.Fork, error)
	// startExec runs a served request's function and then ends it: it is
	// execTimer, a field so a test can check it against the
	// process-per-exec hand-off it replaced.
	startExec func(*request, *kvm.Machine)

	// enrollVer bumps on every Reenroll, so an exchange can tell whether
	// the platform identity moved underneath it (drift re-enrollment
	// landing mid-exchange) and classify the resulting denial as a
	// retryable re-attestation instead of a verdict.
	enrollVer int
	// chainRaw is chainOf's chain, marshaled once per Enrollment and not
	// on every exchange.
	chainOf  *kbs.Enrollment
	chainRaw []byte

	firstErr error

	// provMu guards provErr: reference-value provisioning runs from
	// cache-subscription callbacks, which foreign shards' goroutines may
	// invoke when the cache is shared.
	provMu  sync.Mutex
	provErr error
}

// New builds an orchestrator and spawns its worker pool on eng. Workers
// park until work arrives; call Close once all submissions are in so the
// pool drains and eng.Run can return.
func New(eng *sim.Engine, host *kvm.Host, cfg Config) *Orchestrator {
	cfg.fillDefaults()
	o := &Orchestrator{
		eng:      eng,
		host:     host,
		cfg:      cfg,
		met:      newMetrics(cfg.Telemetry),
		queues:   make(map[string]*sim.Queue[*request]),
		planning: make(map[Key]*sim.Signal),
		standby:  make(map[Key][]*kvm.Machine),

		captureFork: snapshot.CaptureFork,
	}
	o.startExec = o.execTimer
	o.brk = newBreaker(cfg.Breaker, o.met)
	if cfg.KBS != nil {
		// Derive the broker's reference values from the measured image
		// cache: every digest the fleet can boot is filed as a
		// measurement claim as it is planned (including entries other
		// shards planned first).
		o.cfg.Cache.Subscribe(func(mi *MeasuredImage) {
			if err := o.cfg.KBS.File(kbs.RefClaim(mi.Digest, fmt.Sprintf("measured image %x", mi.Key[:6]))); err != nil {
				o.provMu.Lock()
				if o.provErr == nil {
					o.provErr = fmt.Errorf("fleet: provisioning reference value: %w", err)
				}
				o.provMu.Unlock()
			}
		})
	}
	if !cfg.Standalone {
		for i := 0; i < cfg.Workers; i++ {
			eng.Go(fmt.Sprintf("%s-worker-%d", o.cfg.Name, i), o.worker)
		}
	}
	return o
}

// Serve boots one request synchronously on the calling process,
// bypassing the queue and worker pool — the Standalone-mode entry
// point. Accounting (metrics, retries, deadline budget, Done callback)
// is identical to a worker-served Submit.
func (o *Orchestrator) Serve(p *sim.Proc, req Request) {
	o.releaseHeld()
	o.met.submitted()
	r := &request{Request: req, admitted: p.Now(), id: o.nextID}
	o.nextID++
	o.serve(p, r)
}

// Metrics exposes the registry; read it after eng.Run returns.
func (o *Orchestrator) Metrics() *Metrics { return o.met }

// Reenroll swaps the host's platform identity — the rolling-update step
// where a host's firmware moves to a new TCB and its PSP is re-enrolled
// under the key authority (its Enroll re-derives the VCEK chain).
// Admissions from this instant evaluate with the new identity. Exchanges
// already in flight may straddle the swap — a report signed under one
// VCEK redeemed with the other's chain — and their denials come back as
// retryable ErrReattest, bounded by the ordinary retry budget.
func (o *Orchestrator) Reenroll(e *kbs.Enrollment) {
	o.cfg.Enrollment = e
	o.enrollVer++
	o.met.reenrolled()
}

// CacheStats snapshots the measured-image cache counters.
func (o *Orchestrator) CacheStats() CacheStats { return o.cfg.Cache.Stats() }

// Err returns the first deterministic (non-transient) boot error, if any,
// or the first reference-value provisioning failure.
func (o *Orchestrator) Err() error {
	if o.firstErr != nil {
		return o.firstErr
	}
	o.provMu.Lock()
	defer o.provMu.Unlock()
	return o.provErr
}

// RegisterImage registers the preset's design launch: an SEV-SNP guest
// booting the LZ4 bzImage with Config.MemSize of memory.
func (o *Orchestrator) RegisterImage(name string, preset kernelgen.Preset, initrd []byte) (*Image, error) {
	art, err := kernelgen.Cached(preset)
	if err != nil {
		return nil, err
	}
	return o.Register(name, firecracker.Config{
		Preset:    preset,
		Artifacts: art,
		Initrd:    initrd,
		MemSize:   o.cfg.MemSize,
		Level:     sev.SNP,
		Scheme:    firecracker.SchemeSEVeriFastBz,
	})
}

// Register content-addresses launch as an image: what every cold boot of
// it runs (plus the cached plan), and what its spec is read off. The hash
// pass over the image bytes happens here, once — the §4.3 out-of-band
// measurement the fleet amortizes across boots. A fleet serves measured
// Firecracker guests only, and launches them with key sharing exactly when
// the warm tier is on, whatever launch.AllowKeySharing says.
func (o *Orchestrator) Register(name string, launch firecracker.Config) (*Image, error) {
	switch {
	case launch.Scheme == firecracker.SchemeQEMUOVMF:
		return nil, fmt.Errorf("fleet: image %q: a fleet serves measured Firecracker guests, not scheme %v", name, launch.Scheme)
	case !launch.Level.Encrypted() || launch.Scheme == firecracker.SchemeStock:
		return nil, fmt.Errorf("fleet: image %q: a fleet serves measured guests only, not scheme %v at level %v",
			name, launch.Scheme, launch.Level)
	}
	launch = launch.Resolved()
	launch.AllowKeySharing = o.cfg.EnableWarm
	kernel, _, err := launch.KernelImage()
	if err != nil {
		return nil, err
	}
	// Intern the canonical image buffers: every boot of this image stages
	// these exact slices, so digests memoize and guest pages alias one
	// copy (the CoW fleet path).
	artifact.Intern(kernel)
	artifact.Intern(launch.Initrd)
	spec := ImageSpec{
		Kernel:               kernel,
		Initrd:               launch.Initrd,
		Cmdline:              launch.Cmdline,
		VCPUs:                launch.VCPUs,
		MemSize:              launch.MemSize,
		Level:                launch.Level,
		Policy:               launch.Policy(),
		VerifierSeed:         launch.VerifierSeed,
		PreEncryptPageTables: launch.PreEncryptPageTables,
	}
	key, hashes := KeyOf(spec)
	return &Image{
		Name:   name,
		launch: launch,
		spec:   spec,
		key:    key,
		hashes: hashes,
	}, nil
}

// Submit offers a request from a simulation process. It never blocks: the
// request is queued (waking a parked worker) or rejected with ErrQueueFull
// / ErrClosed, and the caller — an open-loop arrival process — moves on.
func (o *Orchestrator) Submit(p *sim.Proc, req Request) error {
	o.met.submitted()
	if o.cfg.Standalone {
		o.met.rejected()
		return fmt.Errorf("%w: standalone orchestrator serves synchronously (use Serve)", ErrClosed)
	}
	if o.closed {
		o.met.rejected()
		return ErrClosed
	}
	if o.cfg.QueueDepth > 0 && o.queued >= o.cfg.QueueDepth {
		o.met.rejected()
		return ErrQueueFull
	}
	r := &request{Request: req, admitted: p.Now(), id: o.nextID}
	o.nextID++
	q, ok := o.queues[req.Tenant]
	if !ok {
		q = new(sim.Queue[*request])
		o.queues[req.Tenant] = q
		o.ring = append(o.ring, req.Tenant)
	}
	q.Push(r)
	o.queued++
	o.met.queueDepth(o.queued)
	o.wakeOne()
	return nil
}

// Close stops admission and wakes every parked worker so the pool drains
// queued requests and exits, letting eng.Run terminate.
func (o *Orchestrator) Close() {
	o.releaseHeld()
	o.closed = true
	idle := o.idle
	o.idle = nil
	for _, w := range idle {
		o.eng.Wake(w)
	}
}

func (o *Orchestrator) wakeOne() {
	if n := len(o.idle); n > 0 {
		w := o.idle[n-1]
		o.idle = o.idle[:n-1]
		o.eng.Wake(w)
	}
}

// pop dequeues the next request fairly: round-robin across tenants, FIFO
// within a tenant, so one chatty tenant cannot starve the rest.
func (o *Orchestrator) pop() *request {
	if o.queued == 0 {
		return nil
	}
	n := len(o.ring)
	for i := 0; i < n; i++ {
		t := o.ring[(o.rrNext+i)%n]
		q := o.queues[t]
		if q.Len() == 0 {
			continue
		}
		o.queued--
		o.rrNext = (o.rrNext + i + 1) % n
		return q.Pop()
	}
	return nil
}

// worker is the pool loop: dequeue, serve, park when idle, exit on drain.
func (o *Orchestrator) worker(p *sim.Proc) {
	for {
		r := o.pop()
		if r == nil {
			if o.closed {
				return
			}
			o.idle = append(o.idle, p)
			p.Park()
			continue
		}
		o.serve(p, r)
	}
}

// serve runs one request to completion: boot (with retry on transient
// failures) under the per-request deadline budget, then hand execution off
// to a spawned process so the worker slot frees up for the next boot.
func (o *Orchestrator) serve(p *sim.Proc, r *request) {
	o.met.queueWait(p.Now().Sub(r.admitted))
	budget := sim.Budget{Start: r.admitted, Limit: o.cfg.BootDeadline}
	giveUp := func(tier Tier, err error) {
		o.met.failed(r.Tenant)
		if r.Done != nil {
			r.Done(p, tier, err)
		}
	}
	// The policy gate, before any boot work is spent: a denied tenant or
	// distrusted platform never reaches a worker's boot path. Denials are
	// deterministic verdicts, not transient failures — no retry.
	if err := o.admission(p, r); err != nil {
		giveUp(TierCold, err)
		return
	}
	for attempt := 0; ; attempt++ {
		if budget.Exceeded(p.Now()) {
			o.met.deadline()
			giveUp(TierCold, fmt.Errorf("%w: %v budget spent before attempt %d",
				ErrDeadlineExceeded, o.cfg.BootDeadline, attempt+1))
			return
		}
		attemptStart := p.Now()
		tier, m, err := o.bootOnce(p, r)
		if err == nil {
			o.met.boot(tier, p.Now().Sub(r.admitted), r.Tenant)
			// The serving attempt, retroactively: it time-encloses the
			// machine's vm.boot span on this worker's track, so Perfetto
			// shows boot tiers above the boot internals.
			o.met.reg.Record(p.Name(), "fleet.boot", attemptStart, p.Now(),
				telemetry.A("tier", tier.String()),
				telemetry.A("tenant", r.Tenant),
				telemetry.A("image", r.Image.Name))
			if r.Done != nil {
				r.Done(p, tier, nil)
			}
			o.finish(p, r, m)
			return
		}
		if !retryable(err) {
			if o.firstErr == nil {
				o.firstErr = err
			}
			giveUp(tier, err)
			return
		}
		o.met.fault()
		if attempt >= o.cfg.Retry.Max {
			giveUp(tier, err)
			return
		}
		delay := o.cfg.Retry.delay(attempt)
		if !budget.Unlimited() && delay >= budget.Remaining(p.Now()) {
			// The backoff alone would blow the deadline: give up now
			// rather than sleep into certain failure.
			o.met.deadline()
			giveUp(tier, fmt.Errorf("%w: %v backoff exceeds remaining budget: %w",
				ErrDeadlineExceeded, delay, err))
			return
		}
		if errors.Is(err, ErrReattest) {
			// The request is now queued behind the identity swap: the gauge
			// over these waits is the re-attestation queue depth a rolling
			// TCB update builds up on a straggler host.
			o.met.reattestWait(1)
			p.Sleep(delay)
			o.met.reattestWait(-1)
		} else {
			p.Sleep(delay)
		}
		o.met.retry()
	}
}

// retryable reports whether a boot-attempt error is transient: key-broker
// transport failures, exchanges that straddled a re-enrollment and warm
// boots whose pool was evicted mid-boot are retried with backoff; any
// other error is deterministic and fails the request immediately.
func retryable(err error) bool {
	return errors.Is(err, ErrKBSUnreachable) || errors.Is(err, ErrReattest) ||
		errors.Is(err, ErrWarmInvalidated)
}

// finish runs the function body off-worker, records end-to-end latency and
// ends the request.
func (o *Orchestrator) finish(p *sim.Proc, r *request, m *kvm.Machine) {
	if r.Exec <= 0 {
		o.met.endToEnd(p.Now().Sub(r.admitted))
		o.end(r, m)
		return
	}
	o.startExec(r, m)
}

// execTimer runs the function body as two engine events, not a process.
// The first, at this instant, arms the Exec timer; the second ends the
// request. They take the same (time, seq) slots as a spawned process's
// first step and its Sleep(Exec) would, so events at equal instants keep
// their order. A single After(Exec) would take its slot now, ahead of
// everything scheduled before a spawned process first ran, and reorder
// those ties.
func (o *Orchestrator) execTimer(r *request, m *kvm.Machine) {
	o.eng.At(o.eng.Now(), func() {
		o.eng.After(r.Exec, func() { o.execEnded(r, m) })
	})
}

// execEnded concludes a request whose function has run.
func (o *Orchestrator) execEnded(r *request, m *kvm.Machine) {
	o.met.endToEnd(o.eng.Now().Sub(r.admitted))
	o.end(r, m)
}

// end concludes a served request: its guest goes back to the host — a
// standalone orchestrator's at the caller's next Serve or Close — and the
// caller hears of it through Ended.
func (o *Orchestrator) end(r *request, m *kvm.Machine) {
	if o.cfg.Standalone {
		o.held = append(o.held, m)
	} else {
		m.Mem.Release()
	}
	if r.Ended != nil {
		r.Ended()
	}
}

// releaseHeld hands a standalone orchestrator's ended guests back to the
// host.
func (o *Orchestrator) releaseHeld() {
	for _, m := range o.held {
		m.Mem.Release()
	}
	clear(o.held)
	o.held = o.held[:0]
}

// refuse releases a guest the fleet built when err refuses to serve it,
// and passes err on. A fork's donor is never released
// (guestmem.Memory.Release leaves it alone), so a refused boot that seeded
// the warm tier keeps it.
func refuse(m *kvm.Machine, err error) error {
	if err != nil {
		m.Mem.Release()
	}
	return err
}

// bootOnce serves one boot attempt through the fastest available tier and
// returns the guest it served. A guest it built and refused is released.
func (o *Orchestrator) bootOnce(p *sim.Proc, r *request) (Tier, *kvm.Machine, error) {
	img := r.Image
	// Tier 1: warm boot — a prewarmed standby if the pool holds one,
	// otherwise a fork from the image's shared-key snapshot.
	if o.cfg.EnableWarm && img.fork != nil {
		r.warmEpoch = img.warmEpoch
		var m *kvm.Machine
		if ms := o.standby[img.key]; len(ms) > 0 {
			m = ms[len(ms)-1]
			o.standby[img.key] = ms[:len(ms)-1]
		} else {
			var err error
			if m, err = o.warmRestore(p, img); err != nil {
				return TierWarm, nil, err
			}
		}
		return TierWarm, m, refuse(m, o.admit(p, r, TierWarm, m))
	}

	// Tiers 2/3: cold boot; the cache decides whether the measurement
	// pass (hashing + planning + digest) is recomputed or reused.
	tier := TierCachedCold
	var mi *MeasuredImage
	for mi == nil {
		if sig, ok := o.planning[img.key]; ok {
			// Another worker is mid-measurement for this key: wait for it
			// rather than duplicating the hash pass, then re-check (the
			// planner may have failed).
			sig.Wait(p)
			continue
		}
		mi = o.cfg.Cache.Get(img.key)
		if mi != nil {
			break
		}
		tier = TierCold
		sig := sim.NewSignal()
		o.planning[img.key] = sig
		// The uncached path pays the in-band measurement pass in virtual
		// time: hashing the kernel and initrd on the VMM's critical path.
		p.Sleep(o.host.Model.Hash(len(img.spec.Kernel)) + o.host.Model.Hash(len(img.spec.Initrd)))
		var err error
		mi, err = o.cfg.Cache.Plan(img.key, img.hashes, img.spec)
		delete(o.planning, img.key)
		sig.Fire(o.eng)
		if err != nil {
			return tier, nil, err
		}
	}

	res, err := o.bootMachine(p, img, mi)
	if err != nil {
		return tier, nil, err
	}
	if !o.cfg.InsecureSkipDigestCheck && res.LaunchDigest != mi.Digest {
		res.Machine.Mem.Release()
		mismatch := fmt.Errorf("%w for image %q: cache predicts %x, PSP measured %x",
			ErrDigestMismatch, img.Name, mi.Digest[:8], res.LaunchDigest[:8])
		if o.cfg.DegradedFallback {
			return o.degradedRecover(p, r, img, mismatch)
		}
		return tier, nil, mismatch
	}

	// Seed the warm tier: the first successful cold boot donates a
	// fork-ready snapshot. Forked boots inherit the donor's launch
	// digest, which the measured-image cache already provisioned into
	// the key broker — no extra reference value is needed.
	if o.cfg.EnableWarm && img.fork == nil && !img.capturing {
		// capturing covers only the capture's own virtual-time yield; a
		// failed capture must leave the image free to seed on a later boot.
		img.capturing = true
		fork, err := o.captureFork(p, res.Machine, res.LaunchDigest)
		img.capturing = false
		if err != nil {
			res.Machine.Mem.Release()
			return tier, nil, err
		}
		img.fork = fork
	}
	return tier, res.Machine, refuse(res.Machine, o.admit(p, r, tier, res.Machine))
}

// bootMachine performs one cold launch of an image from its measured
// artifacts.
func (o *Orchestrator) bootMachine(p *sim.Proc, img *Image, mi *MeasuredImage) (*firecracker.Result, error) {
	cfg := img.launch
	cfg.Hashes, cfg.Plan = &mi.Hashes, mi.Regions
	return firecracker.Boot(p, o.host, cfg)
}

// admission evaluates the request against the policy engine, reusing a
// still-valid certificate from a prior check. A certificate goes stale
// when the policy store mutates (revocation, rotation) or its folded
// claim expiry passes; staleness forces a fresh evaluation, so a
// revocation filed while the request was queued or booting flips the
// verdict at the next gate.
func (o *Orchestrator) admission(p *sim.Proc, r *request) error {
	now := p.Now()
	if r.cert != nil && o.cfg.Admission.Valid(r.cert, now) {
		return nil
	}
	ev := policy.Evidence{Tenant: r.Tenant}
	if e := o.cfg.Enrollment; e != nil {
		ev.ChipID = e.ChipID
		ev.TCB = e.TCB.Encode()
		ev.HasPlatform = true
	}
	cert, err := o.cfg.Admission.Evaluate(ev, now)
	if err != nil {
		if d := policy.DenialOf(err); d != nil {
			o.met.policyDenied(d.Rule, string(d.Reason))
		}
		return fmt.Errorf("fleet: admission refused for tenant %q: %w", r.Tenant, err)
	}
	r.cert = cert
	return nil
}

// admit finishes a successful boot: the policy gate re-checked against
// the current store state, the attest→key-release gate, then the
// OnServed observation hook for boots that actually went live.
func (o *Orchestrator) admit(p *sim.Proc, r *request, tier Tier, m *kvm.Machine) error {
	if err := o.admission(p, r); err != nil {
		return err
	}
	if err := o.attestExchange(p, r, m); err != nil {
		return err
	}
	// A warm guest forked before a pool eviction must never go live: the
	// donor it inherited its key and digest from was admitted under trust
	// that has since been withdrawn. The epoch check is last so it also
	// covers evictions landing during the attestation yields above; the
	// retry finds the pool unseeded and boots cold.
	if tier == TierWarm && r.warmEpoch != r.Image.warmEpoch {
		o.met.warmInvalidated()
		return fmt.Errorf("%w: image %q pool epoch moved %d -> %d",
			ErrWarmInvalidated, r.Image.Name, r.warmEpoch, r.Image.warmEpoch)
	}
	if o.cfg.OnServed != nil {
		o.cfg.OnServed(p, m, tier)
	}
	return nil
}

// degradedRecover handles a launch-digest mismatch under the degraded-mode
// policy. The mismatch has two possible roots: the measured-image cache
// entry was poisoned (its prediction lies) or the canonical image bytes
// were tampered with (the PSP honestly measured hostile bytes). The policy
// re-hashes the image bytes — charged in virtual time like any measurement
// pass — and compares against the registration-time component hashes, the
// tenant's out-of-band ground truth. Only a provably poisoned cache entry
// is recovered: the entry is evicted, replanned from ground truth, and the
// boot retried once on the cold path. Tampered image bytes fail the boot
// with the original mismatch in the chain.
func (o *Orchestrator) degradedRecover(p *sim.Proc, r *request, img *Image, mismatch error) (Tier, *kvm.Machine, error) {
	p.Sleep(o.host.Model.Hash(len(img.spec.Kernel)) + o.host.Model.Hash(len(img.spec.Initrd)))
	fresh := measure.HashComponents(img.spec.Kernel, img.spec.Initrd, img.spec.Cmdline)
	if fresh != img.hashes {
		return TierCold, nil, fmt.Errorf("fleet: degraded-mode check: image bytes diverge from registration hashes: %w", mismatch)
	}
	o.cfg.Cache.Evict(img.key)
	o.met.degraded()
	mi, err := o.cfg.Cache.Plan(img.key, img.hashes, img.spec)
	if err != nil {
		return TierCold, nil, err
	}
	res, err := o.bootMachine(p, img, mi)
	if err != nil {
		return TierCold, nil, err
	}
	if res.LaunchDigest != mi.Digest {
		// Still mismatching against a freshly planned prediction from
		// intact bytes: the launch path itself is hostile. Surface the
		// original error; no further recovery.
		res.Machine.Mem.Release()
		return TierCold, nil, fmt.Errorf("%w (persists after degraded replan)", mismatch)
	}
	return TierCold, res.Machine, refuse(res.Machine, o.admit(p, r, TierCold, res.Machine))
}

// warmRestore forks a guest from the image's warm parent (Fork.Boot) and
// finishes its launch. A fork source tampered since capture is refused and
// the image's whole warm pool is invalidated, so the next boot of the
// image re-seeds cold from measured bytes.
func (o *Orchestrator) warmRestore(p *sim.Proc, img *Image) (*kvm.Machine, error) {
	// The pool state is read once, as Boot's receiver: an eviction
	// landing during the virtual-time yields (a revocation storm
	// invalidating the pool mid-restore) must not tear the restore out
	// from under us. The guest is built from the container read here and
	// then refused by the pool-epoch check at admit time, so it is never
	// served.
	m, err := img.fork.Boot(p, o.host, img.spec.Level, img.spec.Policy)
	if err != nil {
		if errors.Is(err, guestmem.ErrForkTampered) {
			o.EvictWarm(img)
		}
		return nil, err
	}
	m.Timeline.Annotate("asid", fmt.Sprintf("%d", m.Launch.ASID()))
	if _, err := m.Launch.LaunchFinish(p); err != nil {
		m.Mem.Release()
		return nil, err
	}
	m.Timeline.Close(p.Now())
	return m, nil
}

// Prewarm forks up to n standby guests of img, bounded by
// Config.WarmPoolSize, paying the standard fork charges now so later
// warm boots of the image pop a ready machine instead of forking
// inline. It must run on a simulation process and requires a seeded
// warm tier. Returns how many standbys were added.
func (o *Orchestrator) Prewarm(p *sim.Proc, img *Image, n int) (int, error) {
	if !o.cfg.EnableWarm || img.fork == nil {
		return 0, fmt.Errorf("fleet: prewarm of %q: warm tier not seeded", img.Name)
	}
	added := 0
	for added < n {
		if o.cfg.WarmPoolSize <= 0 || len(o.standby[img.key]) >= o.cfg.WarmPoolSize {
			break
		}
		m, err := o.warmRestore(p, img)
		if err != nil {
			return added, err
		}
		o.standby[img.key] = append(o.standby[img.key], m)
		added++
	}
	return added, nil
}

// StandbyCount reports the image's current prewarmed-standby depth.
func (o *Orchestrator) StandbyCount(img *Image) int { return len(o.standby[img.key]) }

// EvictWarm invalidates an image's entire warm pool: it drops the fork
// container with its donor, and hands any prewarmed standbys back to the
// host. The donor's memory is not released: another host's pool or an
// in-flight fork may still take its key. Called on fork tamper detection
// and by operators re-registering an image; the next boot re-seeds the pool
// from a fresh measured cold boot.
func (o *Orchestrator) EvictWarm(img *Image) {
	img.fork = nil
	img.capturing = false
	img.warmEpoch++
	for _, m := range o.standby[img.key] {
		m.Mem.Release()
	}
	delete(o.standby, img.key)
}

// attestExchange gates a booted guest behind the key broker: challenge,
// PSP report bound to the nonce and guest key, redemption, secret unwrap.
// The span shows up in the machine's trace timeline as "attest" and in the
// boot's EvAttestStart/EvAttestDone events, so Breakdown attributes it.
func (o *Orchestrator) attestExchange(p *sim.Proc, r *request, m *kvm.Machine) error {
	if o.cfg.KBS == nil {
		return nil
	}
	if o.cfg.Enrollment == nil {
		return errors.New("fleet: Config.KBS set without Enrollment")
	}
	if o.brk != nil && !o.brk.allow(p.Now()) {
		// Breaker open: refuse the exchange without touching the broker.
		// The refusal is a kbs "unavailable" denial — deterministic, so
		// the request fails fast instead of burning its retry budget.
		o.met.breakerFastFail()
		o.met.denial(string(kbs.ReasonUnavailable))
		return fmt.Errorf("fleet: circuit breaker open: %w", kbs.ErrUnavailable)
	}
	start := p.Now()
	m.Timeline.Begin("attest", start)
	m.Timeline.Record(start, sev.EvAttestStart)
	err := o.runExchange(p, r, m)
	m.Timeline.Record(p.Now(), sev.EvAttestDone)
	m.Timeline.End("attest", p.Now())
	outcome := "granted"
	if err != nil {
		outcome = "denied"
		if reason := kbs.ReasonOf(err); reason != "" {
			outcome = string(reason)
		}
	}
	// The broker's side of the exchange, on its own track, so the trace
	// shows key-release round trips next to the PSP's REPORT_GEN slots.
	o.met.reg.Record("kbs", "kbs.exchange", start, p.Now(),
		telemetry.A("tenant", r.Tenant),
		telemetry.A("outcome", outcome))
	if err != nil {
		return err
	}
	o.met.attested(p.Now().Sub(start))
	return nil
}

// runExchange performs one attest→key-release round trip.
func (o *Orchestrator) runExchange(p *sim.Proc, r *request, m *kvm.Machine) error {
	enrollVer := o.enrollVer

	p.Sleep(o.host.Model.AttestNetwork)
	ch, err := o.cfg.KBS.Challenge(r.Tenant, p.Now())
	if err != nil {
		return o.brokerErr(p, err)
	}

	// The guest agent's ephemeral key is generated inside encrypted
	// memory; the report binds the nonce and the key hash.
	agent := attest.NewAgentSeeded(o.cfg.AgentSeed + int64(r.id))
	report, err := m.Launch.BuildReport(p, kbs.BindReportData(ch.Nonce, agent.PublicKey()))
	if err != nil {
		return err
	}
	reportBytes := report.Marshal()
	if e := o.cfg.Enrollment; o.chainOf != e {
		o.chainOf, o.chainRaw = e, e.Chain.Marshal()
	}

	req := kbs.RedeemRequest{
		Tenant:   r.Tenant,
		Nonce:    ch.Nonce,
		Report:   reportBytes,
		Chain:    o.chainRaw,
		GuestPub: agent.PublicKey(),
	}
	p.Sleep(o.host.Model.AttestNetwork)
	res, err := o.cfg.KBS.Redeem(req, p.Now())
	if err != nil {
		err = o.brokerErr(p, err)
		// A denial from evidence that straddled a Reenroll (report signed
		// under one VCEK, chain or admission state from the other) is not
		// a verdict on either identity: retry under the settled one.
		if errors.Is(err, kbs.ErrDenied) && o.enrollVer != enrollVer {
			o.met.reattest()
			return fmt.Errorf("%w: enrollment moved mid-exchange: %w", ErrReattest, err)
		}
		return err
	}
	if o.brk != nil {
		o.brk.success()
	}
	if !res.ChainCached {
		// The broker walked the full VCEK→ASK→ARK chain; hot boots whose
		// chain is already in the verdict path skip this charge.
		p.Sleep(o.host.Model.KBSChainVerify)
	}
	if _, err := agent.Unwrap(res.Bundle); err != nil {
		return fmt.Errorf("fleet: unwrapping released secret: %w", err)
	}
	return nil
}

// brokerErr classifies a failed broker call. A denial is a verdict from a
// live broker: it resets the breaker's failure count, is accounted by
// reason and fails the request. Anything else is a transport failure: it
// feeds the breaker and comes back wrapped in ErrKBSUnreachable, which
// the retry loop treats as transient.
func (o *Orchestrator) brokerErr(p *sim.Proc, err error) error {
	if !errors.Is(err, kbs.ErrDenied) {
		if o.brk != nil {
			o.brk.failure(p.Now())
		}
		return fmt.Errorf("%w: %w", ErrKBSUnreachable, err)
	}
	if o.brk != nil {
		o.brk.success()
	}
	reason := string(kbs.ReasonOf(err))
	if reason == "" {
		reason = "error"
	}
	o.met.denial(reason)
	return err
}
