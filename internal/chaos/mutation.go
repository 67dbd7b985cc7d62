package chaos

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/mptable"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/verifier"
)

// Mutation is one adversarial intervention. Arm installs it on a fresh
// harness before the run; Expected lists the error classes a detection is
// allowed to surface as — a failure outside that set is reported as
// Unexpected (detected, but by the wrong layer).
type Mutation interface {
	Family() string
	Name() string
	// Params renders the drawn parameters, for the report.
	Params() string
	Arm(h *Harness)
	Expected() []error
}

// verdictOverrider lets a mutation pre-empt the default classification
// when it knows more than the generic oracle (e.g. the duplicate-delivery
// probe, where success of the run says nothing about the second redeem).
type verdictOverrider interface {
	Verdict(res, clean *RunResult) (Outcome, string, bool)
}

// cleaner is implemented by mutations that touch process-global state
// (interned artifact buffers) and must restore it after the trial.
type cleaner interface {
	Cleanup()
}

func matchesAny(err error, classes []error) bool {
	for _, c := range classes {
		if errors.Is(err, c) {
			return true
		}
	}
	return false
}

// catalog builds the campaign's mutation list for the selected families.
// Draws are made here, eagerly, from per-mutation PRNGs keyed on catalog
// position — so the schedule is a pure function of the seed and the
// report can print every parameter.
func catalog(cfg Config) []Mutation {
	if cfg.Weakened {
		// The oracle self-test: tamper every launch digest under a config
		// whose digest check and broker gate are disabled.
		return []Mutation{&pspDigestTamper{all: true}}
	}
	want := make(map[string]bool, len(cfg.Families))
	for _, f := range cfg.Families {
		want[f] = true
	}
	var muts []Mutation
	idx := 0
	draw := func() *rand.Rand {
		r := campaignRNG(cfg.Seed, idx)
		idx++
		return r
	}
	if want["guestmem"] {
		for i := 0; i < cfg.Trials; i++ {
			r := draw()
			page := uint64(r.Intn(4096)) // first 16 MiB: where components stage
			if r.Intn(2) == 0 {
				page = uint64(r.Intn(1 << 16)) // anywhere in 256 MiB
			}
			muts = append(muts, &memScribble{
				machine: r.Intn(3),
				page:    page,
				delay:   time.Duration(r.Int63n(int64(250 * time.Millisecond))),
				mask:    byte(1 + r.Intn(255)),
			})
		}
		r := draw()
		muts = append(muts, &memScribble{
			// Page 51200 (200 MiB) is far above everything any boot stages
			// or reads: the write must land, change nothing observable, and
			// classify Harmless.
			machine: 0,
			page:    51200,
			delay:   time.Duration(r.Int63n(int64(50 * time.Millisecond))),
			mask:    0xa5,
			unused:  true,
		})
	}
	if want["artifact"] {
		for i := 0; i < cfg.Trials; i++ {
			r := draw()
			muts = append(muts, &artifactCorrupt{
				off:   r.Intn(1 << 20),
				mask:  byte(1 + r.Intn(255)),
				delay: time.Duration(r.Int63n(int64(60 * time.Millisecond))),
			})
		}
		r := draw()
		muts = append(muts, &cachePoison{
			byteIdx: r.Intn(32),
			mask:    byte(1 + r.Intn(255)),
		})
		for i := 0; i < cfg.Trials; i++ {
			r := draw()
			muts = append(muts, &planMutation{
				kind: "bitflip",
				off:  r.Intn(1 << 20),
				mask: byte(1 + r.Intn(255)),
			})
		}
		draw()
		muts = append(muts, &planMutation{kind: "pristine"})
	}
	if want["psp"] {
		for i := 0; i < cfg.Trials; i++ {
			r := draw()
			muts = append(muts, &pspPreEncrypt{
				call: r.Intn(24),
				mask: byte(1 + r.Intn(255)),
			})
		}
		draw()
		muts = append(muts, &pspDigestTamper{})
	}
	if want["snapshot"] {
		for _, kind := range []string{"truncate", "bitflip", "header", "extend", "duplicate"} {
			r := draw()
			muts = append(muts, &snapMutation{
				kind: kind,
				off:  r.Intn(1 << 20),
				mask: byte(1 + r.Intn(255)),
			})
		}
	}
	if want["fork"] {
		for i := 0; i < cfg.Trials; i++ {
			r := draw()
			muts = append(muts, &forkMutation{
				kind: "bitflip",
				off:  r.Intn(1 << 20),
				mask: byte(1 + r.Intn(255)),
			})
		}
		for i := 0; i < cfg.Trials; i++ {
			r := draw()
			muts = append(muts, &forkMutation{
				kind: "aliased",
				off:  r.Intn(1 << 20),
				mask: byte(1 + r.Intn(255)),
			})
		}
		draw()
		muts = append(muts, &forkMutation{kind: "pristine"})
	}
	if want["kbs"] {
		r := draw()
		muts = append(muts, &kbsCorrupt{field: "report", redeem: r.Intn(3), off: r.Intn(1 << 10), mask: byte(1 + r.Intn(255))})
		r = draw()
		muts = append(muts, &kbsCorrupt{field: "chain", redeem: r.Intn(3), off: r.Intn(1 << 10), mask: byte(1 + r.Intn(255))})
		r = draw()
		muts = append(muts, &kbsDelay{redeem: r.Intn(3), delay: 2 * time.Second})
		r = draw()
		muts = append(muts, &kbsDuplicate{redeem: r.Intn(3)})
		r = draw()
		muts = append(muts, &kbsOutage{
			// Boots take hundreds of virtual milliseconds; draw a window
			// wide enough to usually straddle at least one exchange.
			from: time.Duration(int64(50*time.Millisecond) + r.Int63n(int64(300*time.Millisecond))),
			span: time.Duration(int64(150*time.Millisecond) + r.Int63n(int64(300*time.Millisecond))),
		})
	}
	if want["policy"] {
		r := draw()
		muts = append(muts, &polForgedRef{bit: r.Intn(256)})
		draw()
		muts = append(muts, &polRescope{})
		// Revocation delays stay under the ~250ms ceiling the guestmem
		// family established: a scheduled event past the run's natural end
		// would extend the virtual end time and fail the fingerprint match
		// on an otherwise harmless trial.
		r = draw()
		muts = append(muts, &polExpireRefs{
			delay: time.Duration(r.Int63n(int64(250 * time.Millisecond))),
		})
		r = draw()
		muts = append(muts, &polRevokeFloor{
			delay: time.Duration(r.Int63n(int64(250 * time.Millisecond))),
		})
	}
	if want["tcbstorm"] {
		// Same ~250ms delay ceiling as the policy family, and the same
		// draw-order discipline: these draws are appended after every
		// existing family so historic campaigns keep their parameters.
		r := draw()
		muts = append(muts, &stormForgedUnrevoke{
			delay: time.Duration(r.Int63n(int64(250 * time.Millisecond))),
		})
		r = draw()
		muts = append(muts, &stormStaleFloorReplay{
			delay: time.Duration(r.Int63n(int64(250 * time.Millisecond))),
		})
		r = draw()
		muts = append(muts, &stormForgedFloorRestore{
			delay: time.Duration(r.Int63n(int64(250 * time.Millisecond))),
		})
		r = draw()
		muts = append(muts, &stormPristineRecovery{
			delay: time.Duration(r.Int63n(int64(250 * time.Millisecond))),
		})
	}
	return muts
}

// ---------------------------------------------------------------------------
// guestmem family: host scribbles on guest physical pages mid-boot.

// memScribble writes a garbage cacheline into one guest page of the n-th
// machine after a drawn virtual-time delay. Three legal outcomes, all
// deterministic per seed: the write lands on a staged page before
// measurement (boot verifier or launch digest catches it), it targets an
// already-private SNP page (the RMP refuses the host write — harmless),
// or it lands somewhere no boot ever reads (harmless).
type memScribble struct {
	machine int
	page    uint64
	delay   time.Duration
	mask    byte
	unused  bool // targets provably unused memory; expect Harmless
}

func (m *memScribble) Family() string { return "guestmem" }
func (m *memScribble) Name() string {
	if m.unused {
		return "scribble-unused"
	}
	return "scribble"
}
func (m *memScribble) Params() string {
	return fmt.Sprintf("machine=%d page=%d delay=%s mask=%#02x", m.machine, m.page, m.delay, m.mask)
}
func (m *memScribble) Expected() []error {
	if m.unused {
		return nil
	}
	// The scribble can land on staged components (boot verifier catches),
	// measured launch pages (digest diverges), or measured guest tables
	// that the kernel parses after entry (mptable refuses) — any of these
	// is the system failing closed.
	return []error{fleet.ErrDigestMismatch, verifier.ErrVerification, mptable.ErrCorrupt}
}

func (m *memScribble) Arm(h *Harness) {
	count := 0
	h.OnMachine(func(mach *kvm.Machine) {
		if count == m.machine {
			mach := mach
			h.Eng.After(m.delay, func() {
				line := make([]byte, 64)
				for i := range line {
					line[i] = m.mask
				}
				// The RMP may refuse (page already private): that refusal IS
				// the defense, so the error is swallowed, not propagated.
				_ = mach.Mem.HostWrite(m.page*guestmem.PageSize, line)
			})
		}
		count++
	})
}

// ---------------------------------------------------------------------------
// artifact family: canonical buffers and the measured-image cache.

// artifactCorrupt flips one byte of the interned canonical kernel buffer
// at a drawn virtual time. Every guest page staging that kernel aliases
// the same buffer (the CoW fleet path), so the flip is visible to any
// boot that hasn't yet verified — the §4.3 boot verifier must catch it
// against the out-of-band hash page (or the launch digest must diverge).
// Corruption is XOR, so Cleanup re-applies it to restore the
// process-global buffer for later trials.
type artifactCorrupt struct {
	off   int
	mask  byte
	delay time.Duration

	applied    *artifact.Buf
	appliedOff int
}

func (a *artifactCorrupt) Family() string { return "artifact" }
func (a *artifactCorrupt) Name() string   { return "kernel-corrupt" }
func (a *artifactCorrupt) Params() string {
	return fmt.Sprintf("off=%d mask=%#02x delay=%s", a.off, a.mask, a.delay)
}
func (a *artifactCorrupt) Expected() []error {
	return []error{verifier.ErrVerification, fleet.ErrDigestMismatch}
}

func (a *artifactCorrupt) Arm(h *Harness) {
	h.Eng.After(a.delay, func() {
		buf := artifact.Lookup(h.Kernel)
		if buf == nil || buf.Len() == 0 {
			return
		}
		off := a.off % buf.Len()
		buf.Corrupt(off, a.mask)
		a.applied, a.appliedOff = buf, off
	})
}

func (a *artifactCorrupt) Cleanup() {
	if a.applied != nil {
		a.applied.Corrupt(a.appliedOff, a.mask)
		a.applied = nil
	}
}

// cachePoison corrupts the measured-image cache's digest prediction as
// the entry is published — before the fleet provisions it as a broker
// reference value, which is exactly the poisoned-pipeline shape. The
// degraded-mode policy must detect the mismatch, prove the canonical
// bytes intact, evict, replan, and serve the boot cold with an honest
// digest; the trial then classifies Caught via Metrics.Degraded.
type cachePoison struct {
	byteIdx  int
	mask     byte
	poisoned bool
}

func (c *cachePoison) Family() string { return "artifact" }
func (c *cachePoison) Name() string   { return "cache-poison" }
func (c *cachePoison) Params() string {
	return fmt.Sprintf("byte=%d mask=%#02x", c.byteIdx, c.mask)
}
func (c *cachePoison) Expected() []error {
	return []error{fleet.ErrDigestMismatch}
}

func (c *cachePoison) Arm(h *Harness) {
	h.Cfg.Cache.Subscribe(func(mi *fleet.MeasuredImage) {
		if c.poisoned {
			return // the degraded replan publishes a fresh, honest entry
		}
		c.poisoned = true
		mi.Digest[c.byteIdx] ^= c.mask
	})
}

// ---------------------------------------------------------------------------
// psp family: tampering inside the launch measurement path.

// pspPreEncrypt scribbles on a launch page in the window between staging
// and encryption — the n-th LAUNCH_UPDATE_DATA across the whole trial.
// The page is still shared, so the write lands; the PSP then honestly
// measures hostile bytes and the digest check refuses the boot (the
// degraded policy retries once — the tamper fires only once — and the
// retry serves honestly).
type pspPreEncrypt struct {
	call  int
	mask  byte
	seen  int
	fired bool
}

func (t *pspPreEncrypt) Family() string { return "psp" }
func (t *pspPreEncrypt) Name() string   { return "pre-encrypt-tamper" }
func (t *pspPreEncrypt) Params() string {
	return fmt.Sprintf("call=%d mask=%#02x", t.call, t.mask)
}
func (t *pspPreEncrypt) Expected() []error {
	// The launch page hit may be the hash page or page tables (verifier
	// refuses), the MP table (guest kernel refuses), or any other
	// measured page (launch digest diverges from the prediction).
	return []error{fleet.ErrDigestMismatch, verifier.ErrVerification, mptable.ErrCorrupt}
}

func (t *pspPreEncrypt) Arm(h *Harness) {
	h.Host.PSP.PreEncryptTamper = func(mem *guestmem.Memory, gpa uint64, n int) {
		if t.fired || t.seen != t.call {
			t.seen++
			return
		}
		t.seen++
		t.fired = true
		if n > 32 {
			n = 32
		}
		garbage := make([]byte, n)
		for i := range garbage {
			garbage[i] = t.mask
		}
		_ = mem.HostWrite(gpa, garbage)
	}
}

// pspDigestTamper truncates the launch digest at LAUNCH_FINISH — zeroing
// its second half, the classic truncated-MAC weakening. Fires once per
// trial unless all is set (the weakened-oracle self-test, where every
// launch is tampered and must surface as an ESCAPE).
type pspDigestTamper struct {
	all   bool
	fired bool
}

func (t *pspDigestTamper) Family() string { return "psp" }
func (t *pspDigestTamper) Name() string {
	if t.all {
		return "digest-truncate-all"
	}
	return "digest-truncate"
}
func (t *pspDigestTamper) Params() string {
	return fmt.Sprintf("zero=16..31 all=%v", t.all)
}
func (t *pspDigestTamper) Expected() []error {
	return []error{fleet.ErrDigestMismatch}
}

func (t *pspDigestTamper) Arm(h *Harness) {
	h.Host.PSP.DigestTamper = func(d [32]byte) [32]byte {
		if t.fired && !t.all {
			return d
		}
		t.fired = true
		for i := 16; i < 32; i++ {
			d[i] = 0
		}
		return d
	}
}

// ---------------------------------------------------------------------------
// kbs family: evidence corruption, delivery faults, and outages, armed by
// wrapping the harness's broker in a Service decorator.

// kbsProxy forwards to the inner broker, letting one mutation intercept
// call boundaries. Redeem calls are numbered so a drawn exchange can be
// singled out.
type kbsProxy struct {
	inner     kbs.Service
	redeems   int
	onRedeem  func(idx int, req *kbs.RedeemRequest, now sim.Time) sim.Time
	roundTrip func(idx int, req kbs.RedeemRequest, now sim.Time) (*kbs.RedeemResult, error)
	outage    func(now sim.Time) error
}

func (px *kbsProxy) Challenge(tenant string, now sim.Time) (kbs.Challenge, error) {
	if px.outage != nil {
		if err := px.outage(now); err != nil {
			return kbs.Challenge{}, err
		}
	}
	return px.inner.Challenge(tenant, now)
}

func (px *kbsProxy) Redeem(req kbs.RedeemRequest, now sim.Time) (*kbs.RedeemResult, error) {
	idx := px.redeems
	px.redeems++
	if px.outage != nil {
		if err := px.outage(now); err != nil {
			return nil, err
		}
	}
	if px.roundTrip != nil {
		return px.roundTrip(idx, req, now)
	}
	if px.onRedeem != nil {
		now = px.onRedeem(idx, &req, now)
	}
	return px.inner.Redeem(req, now)
}

func (px *kbsProxy) Provision(digest [32]byte, label string) error {
	return px.inner.Provision(digest, label)
}
func (px *kbsProxy) Revoke(chipID string) error { return px.inner.Revoke(chipID) }
func (px *kbsProxy) Stats() (kbs.Stats, error)  { return px.inner.Stats() }

// kbsCorrupt flips one byte of the report or chain on the drawn redeem.
// The broker's per-exchange signature checks must refuse with a denial.
type kbsCorrupt struct {
	field  string // "report" | "chain"
	redeem int
	off    int
	mask   byte
}

func (m *kbsCorrupt) Family() string { return "kbs" }
func (m *kbsCorrupt) Name() string   { return "corrupt-" + m.field }
func (m *kbsCorrupt) Params() string {
	return fmt.Sprintf("redeem=%d off=%d mask=%#02x", m.redeem, m.off, m.mask)
}
func (m *kbsCorrupt) Expected() []error { return []error{kbs.ErrDenied} }

func (m *kbsCorrupt) Arm(h *Harness) {
	h.Service = &kbsProxy{
		inner: h.Service,
		onRedeem: func(idx int, req *kbs.RedeemRequest, now sim.Time) sim.Time {
			if idx != m.redeem {
				return now
			}
			b := req.Report
			if m.field == "chain" {
				b = req.Chain
			}
			if len(b) > 0 {
				mut := append([]byte(nil), b...)
				mut[m.off%len(mut)] ^= m.mask
				if m.field == "chain" {
					req.Chain = mut
				} else {
					req.Report = mut
				}
			}
			return now
		},
	}
}

// kbsDelay delivers the drawn redeem late — past the nonce TTL — by
// shifting the virtual timestamp the broker sees. The freshness check
// must refuse with an expired denial; no wall-clock sleeping involved.
type kbsDelay struct {
	redeem int
	delay  time.Duration
}

func (m *kbsDelay) Family() string { return "kbs" }
func (m *kbsDelay) Name() string   { return "delayed-redeem" }
func (m *kbsDelay) Params() string {
	return fmt.Sprintf("redeem=%d delay=%s", m.redeem, m.delay)
}
func (m *kbsDelay) Expected() []error { return []error{kbs.ErrExpired, kbs.ErrDenied} }

func (m *kbsDelay) Arm(h *Harness) {
	h.Service = &kbsProxy{
		inner: h.Service,
		onRedeem: func(idx int, req *kbs.RedeemRequest, now sim.Time) sim.Time {
			if idx == m.redeem {
				return now.Add(m.delay)
			}
			return now
		},
	}
}

// kbsDuplicate delivers the drawn redeem twice back to back and returns
// the first verdict to the fleet (so the run itself proceeds normally).
// The second, duplicate exchange is the probe: the broker must refuse it
// as a replay — a grant is an ESCAPE regardless of how the run went.
type kbsDuplicate struct {
	redeem  int
	fired   bool
	dupErr  error
	granted bool
}

func (m *kbsDuplicate) Family() string { return "kbs" }
func (m *kbsDuplicate) Name() string   { return "duplicate-redeem" }
func (m *kbsDuplicate) Params() string { return fmt.Sprintf("redeem=%d", m.redeem) }
func (m *kbsDuplicate) Expected() []error {
	// The fleet-visible exchange is honest; failures would be unexpected.
	return nil
}

func (m *kbsDuplicate) Arm(h *Harness) {
	inner := h.Service
	h.Service = &kbsProxy{
		inner: inner,
		roundTrip: func(idx int, req kbs.RedeemRequest, now sim.Time) (*kbs.RedeemResult, error) {
			res, err := inner.Redeem(req, now)
			if idx == m.redeem {
				m.fired = true
				dup, dupErr := inner.Redeem(req, now)
				m.dupErr = dupErr
				m.granted = dupErr == nil && dup != nil
			}
			return res, err
		},
	}
}

func (m *kbsDuplicate) Verdict(res, clean *RunResult) (Outcome, string, bool) {
	if !m.fired {
		return Unexpected, "trial ran fewer redeems than the drawn duplicate index", true
	}
	if m.granted {
		return Escape, "broker granted a byte-identical duplicate redeem (replayed nonce accepted)", true
	}
	if errors.Is(m.dupErr, kbs.ErrReplay) {
		if len(res.failures()) > 0 {
			return Unexpected, fmt.Sprintf("duplicate refused, but the honest exchange failed too: %v", res.failures()[0]), true
		}
		return Caught, "duplicate redeem refused as a replay; honest exchange unaffected", true
	}
	return Unexpected, fmt.Sprintf("duplicate refused with the wrong class: %v", m.dupErr), true
}

// kbsOutage makes the broker unreachable for a virtual-time window: both
// Challenge and Redeem return a plain transport error. The fleet must
// absorb it — retries with backoff, the circuit breaker opening after
// consecutive transport failures and fast-failing instead of hammering a
// dead broker, half-open recovery after the window — or fail closed with
// transport/breaker/deadline classes. Nothing may be served un-attested.
type kbsOutage struct {
	from time.Duration
	span time.Duration
}

func (m *kbsOutage) Family() string { return "kbs" }
func (m *kbsOutage) Name() string   { return "outage-window" }
func (m *kbsOutage) Params() string {
	return fmt.Sprintf("from=%s span=%s", m.from, m.span)
}
func (m *kbsOutage) Expected() []error {
	return []error{fleet.ErrKBSUnreachable, kbs.ErrUnavailable, fleet.ErrDeadlineExceeded}
}

func (m *kbsOutage) Arm(h *Harness) {
	from := sim.Time(0).Add(m.from)
	to := from.Add(m.span)
	h.Service = &kbsProxy{
		inner: h.Service,
		outage: func(now sim.Time) error {
			if now >= from && now < to {
				return fmt.Errorf("kbs transport: connection refused (outage window)")
			}
			return nil
		},
	}
}

func (m *kbsOutage) Verdict(res, clean *RunResult) (Outcome, string, bool) {
	if len(res.failures()) > 0 {
		return "", "", false // the default expected-class check applies
	}
	if _, d, foreign := res.foreignDigest(clean); foreign {
		return Escape, fmt.Sprintf("boot served digest %x during/after outage, never produced cleanly", d[:8]), true
	}
	if res.fingerprint() == clean.fingerprint() {
		return Harmless, "outage window overlapped no exchange", true
	}
	return Caught, fmt.Sprintf("outage absorbed: %d retries, %d breaker fast-fails, transitions %v, all digests honest",
		res.Metrics.Retries, res.Metrics.BreakerFastFails, res.Metrics.BreakerTransitions), true
}

// ---------------------------------------------------------------------------
// policy family: subverting the trust-claim store every admission gate
// consults. The harness points fleet admission at the broker's policy
// engine, so a store-level tamper must surface at the policy layer (a
// fleet admission refusal wrapping policy.ErrDenied) or at the broker
// (a kbs denial mapped from the engine's verdict) — never as a served
// boot.

// polForgedRef intercepts the store's write path and flips one drawn bit
// of the signature on every measurement claim as the fleet provisions it.
// The store files the forgery verbatim (an adversary on the write path
// skips the honest writer's checks), so the engine's per-claim signature
// verification is the last line: every redemption consulting the claim
// must refuse it as forged.
type polForgedRef struct {
	bit int
}

func (m *polForgedRef) Family() string { return "policy" }
func (m *polForgedRef) Name() string   { return "forged-ref-claim" }
func (m *polForgedRef) Params() string { return fmt.Sprintf("bit=%d", m.bit) }
func (m *polForgedRef) Expected() []error {
	return []error{kbs.ErrMeasurement, kbs.ErrDenied}
}

func (m *polForgedRef) Arm(h *Harness) {
	h.Broker.Policy().Intercept(func(c policy.Claim) policy.Claim {
		if c.Kind != policy.KindMeasurement || c.SigR == nil || c.SigR.BitLen() == 0 {
			return c
		}
		bit := m.bit % c.SigR.BitLen()
		c.SigR = new(big.Int).SetBit(c.SigR, bit, 1-c.SigR.Bit(bit))
		return c
	})
}

// polRescope intercepts the write path and re-scopes every measurement
// claim to a tenant that never boots. The claim files under the foreign
// tenant's domain — invisible to the booting tenant's evaluation — so
// every redemption must refuse the digest as untrusted. (The rescope also
// breaks the signature, but the scope isolation alone is the defense
// under test: claims filed under one tenant never speak for another.)
type polRescope struct{}

func (m *polRescope) Family() string { return "policy" }
func (m *polRescope) Name() string   { return "rescoped-ref-claim" }
func (m *polRescope) Params() string { return "scope=tenant-evil" }
func (m *polRescope) Expected() []error {
	return []error{kbs.ErrMeasurement, kbs.ErrDenied}
}

func (m *polRescope) Arm(h *Harness) {
	h.Broker.Policy().Intercept(func(c policy.Claim) policy.Claim {
		if c.Kind == policy.KindMeasurement {
			c.Scope = "tenant-evil"
		}
		return c
	})
}

// polExpireRefs is a measurement revocation storm at a drawn virtual
// instant: one RevokeKind call distrusts every reference value at once.
// Exchanges strictly after the instant must be refused (the broker's
// verdict cache is version-keyed, so outstanding grants die with the
// store bump); a storm landing after the last exchange must change
// nothing — Harmless, byte for byte.
type polExpireRefs struct {
	delay time.Duration
}

func (m *polExpireRefs) Family() string { return "policy" }
func (m *polExpireRefs) Name() string   { return "revoke-refs-storm" }
func (m *polExpireRefs) Params() string { return fmt.Sprintf("at=%s", m.delay) }
func (m *polExpireRefs) Expected() []error {
	return []error{kbs.ErrMeasurement, kbs.ErrDenied}
}

func (m *polExpireRefs) Arm(h *Harness) {
	h.Eng.After(m.delay, func() {
		h.Broker.Policy().RevokeKind("*", policy.KindMeasurement, h.Eng.Now())
	})
}

// polRevokeFloor revokes the broker's minimum-TCB platform claim at a
// drawn instant, leaving no platform claim in force. Both gates consult
// the same store: boots admitted after the instant are refused at the
// fleet's serve-time policy check (wrapping policy.ErrDenied), and boots
// already past it are refused at the broker's exchange (a kbs denial).
type polRevokeFloor struct {
	delay time.Duration
}

func (m *polRevokeFloor) Family() string { return "policy" }
func (m *polRevokeFloor) Name() string   { return "revoke-platform-floor" }
func (m *polRevokeFloor) Params() string { return fmt.Sprintf("at=%s", m.delay) }
func (m *polRevokeFloor) Expected() []error {
	return []error{policy.ErrDenied, kbs.ErrDenied}
}

func (m *polRevokeFloor) Arm(h *Harness) {
	h.Eng.After(m.delay, func() {
		h.Broker.Policy().RevokeClaim("*", kbs.MinTCBClaimID, h.Eng.Now())
	})
}
