package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
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

// site is one row of the campaign's table: one adversarial intervention
// at one place and one instant — a virtual delay (Eng.After), a call
// index (the n-th launch update, the n-th redeem), or a between-boots step
// on a closed-loop harness. The families' constructors below return rows;
// whatever state a row carries across its run lives in its closures.
type site struct {
	family string
	name   string
	// params renders the drawn parameters, for the report.
	params string
	// expected lists the error classes a detection is allowed to surface
	// as — a failure outside that set is reported as Unexpected (detected,
	// but by the wrong layer).
	expected []error
	// arm installs the site on a fresh harness before the run.
	arm func(h *Harness)
	// verdict, when set, pre-empts the default classification where the
	// site knows more than the generic oracle (e.g. the duplicate-delivery
	// probe, where success of the run says nothing about the second
	// redeem). decided=false hands the trial back to the default.
	verdict func(res, clean *RunResult) (out Outcome, detail string, decided bool)
	// cleanup, when set, restores the process-global state (interned
	// artifact buffers) the site touched, after the trial.
	cleanup func()
}

func matchesAny(err error, classes []error) bool {
	for _, c := range classes {
		if errors.Is(err, c) {
			return true
		}
	}
	return false
}

// catalog builds the campaign's site table for the selected families.
// Draws are made here, eagerly, from per-site PRNGs keyed on catalog
// position — so the schedule is a pure function of the seed and the
// report can print every parameter.
func catalog(cfg Config) []site {
	if cfg.Weakened {
		// The oracle self-test: tamper every launch digest under a config
		// whose digest check and broker gate are disabled.
		return []site{pspDigestTamper(true)}
	}
	var sites []site
	add := func(s site) { sites = append(sites, s) }
	idx := 0
	draw := func() *rand.Rand {
		r := campaignRNG(cfg.Seed, idx)
		idx++
		return r
	}
	// offMask is the draw most byte-flipping sites share: an offset the
	// site reduces modulo its target's length, and a non-zero XOR mask.
	offMask := func() (int, byte) {
		r := draw()
		return r.Intn(1 << 20), byte(1 + r.Intn(255))
	}
	// instant draws a virtual delay under the ~250ms ceiling the guestmem
	// family established: a scheduled event past the run's natural end
	// would extend the virtual end time and fail the fingerprint match on
	// an otherwise harmless trial.
	instant := func() time.Duration {
		return time.Duration(draw().Int63n(int64(250 * time.Millisecond)))
	}
	want := func(f string) bool { return slices.Contains(cfg.Families, f) }
	if want("guestmem") {
		for i := 0; i < cfg.Trials; i++ {
			r := draw()
			page := uint64(r.Intn(4096)) // first 16 MiB: where components stage
			if r.Intn(2) == 0 {
				page = uint64(r.Intn(1 << 16)) // anywhere in 256 MiB
			}
			add(memScribble(r.Intn(3), page,
				time.Duration(r.Int63n(int64(250*time.Millisecond))), byte(1+r.Intn(255)), false))
		}
		// Page 51200 (200 MiB) is far above everything any boot stages or
		// reads: the write must land, change nothing observable, and
		// classify Harmless.
		add(memScribble(0, 51200, time.Duration(draw().Int63n(int64(50*time.Millisecond))), 0xa5, true))
	}
	if want("artifact") {
		for i := 0; i < cfg.Trials; i++ {
			r := draw()
			add(artifactCorrupt(r.Intn(1<<20), byte(1+r.Intn(255)),
				time.Duration(r.Int63n(int64(60*time.Millisecond)))))
		}
		r := draw()
		add(cachePoison(r.Intn(32), byte(1+r.Intn(255))))
		for i := 0; i < cfg.Trials; i++ {
			add(planBlobDirty(offMask()))
		}
		draw()
		add(planPristine())
	}
	if want("psp") {
		for i := 0; i < cfg.Trials; i++ {
			r := draw()
			add(pspPreEncrypt(r.Intn(24), byte(1+r.Intn(255))))
		}
		draw()
		add(pspDigestTamper(false))
	}
	if want("snapshot") {
		for _, kind := range []string{"truncate", "bitflip", "header", "extend", "duplicate"} {
			off, mask := offMask()
			add(snapshotSite(kind, off, mask))
		}
	}
	if want("fork") {
		for i := 0; i < cfg.Trials; i++ {
			add(forkParentDirty(offMask()))
		}
		for i := 0; i < cfg.Trials; i++ {
			add(forkAliasedArtifact(offMask()))
		}
		draw()
		add(forkPristine())
	}
	if want("kbs") {
		for _, field := range []string{"report", "chain"} {
			r := draw()
			add(kbsCorrupt(field, r.Intn(3), r.Intn(1<<10), byte(1+r.Intn(255))))
		}
		add(kbsDelay(draw().Intn(3), 2*time.Second))
		add(kbsDuplicate(draw().Intn(3)))
		r := draw()
		// Boots take hundreds of virtual milliseconds; draw a window wide
		// enough to usually straddle at least one exchange.
		add(kbsOutage(
			time.Duration(int64(50*time.Millisecond)+r.Int63n(int64(300*time.Millisecond))),
			time.Duration(int64(150*time.Millisecond)+r.Int63n(int64(300*time.Millisecond)))))
	}
	if want("policy") {
		add(polForgedRef(draw().Intn(256)))
		draw()
		add(polRescope())
		add(polExpireRefs(instant()))
		add(polRevokeFloor(instant()))
	}
	if want("tcbstorm") {
		// The same draw-order discipline as every family: these draws are
		// appended after every existing family so historic campaigns keep
		// their parameters.
		add(stormForgedUnrevoke(instant()))
		add(stormStaleFloorReplay(instant()))
		add(stormForgedFloorRestore(instant()))
		add(stormPristineRecovery(instant()))
	}
	return sites
}

// ---------------------------------------------------------------------------
// guestmem family: host scribbles on guest physical pages mid-boot.

// memScribble writes a garbage cacheline into one guest page of the n-th
// machine after a drawn virtual-time delay. Three legal outcomes, all
// deterministic per seed: the write lands on a staged page before
// measurement (boot verifier or launch digest catches it), it targets an
// already-private SNP page (the RMP refuses the host write — harmless),
// or it lands somewhere no boot ever reads (harmless). unused marks a
// target in provably unused memory: expect Harmless.
func memScribble(machine int, page uint64, delay time.Duration, mask byte, unused bool) site {
	s := site{
		family: "guestmem",
		name:   "scribble",
		params: fmt.Sprintf("machine=%d page=%d delay=%s mask=%#02x", machine, page, delay, mask),
		// The scribble can land on staged components (boot verifier
		// catches), measured launch pages (digest diverges), or measured
		// guest tables that the kernel parses after entry (mptable refuses)
		// — any of these is the system failing closed.
		expected: []error{fleet.ErrDigestMismatch, verifier.ErrVerification, mptable.ErrCorrupt},
		arm: func(h *Harness) {
			count := 0
			h.OnMachine(func(mach *kvm.Machine) {
				if count == machine {
					h.Eng.After(delay, func() {
						// The RMP may refuse (page already private): that refusal
						// IS the defense, so the error is swallowed, not propagated.
						_ = mach.Mem.HostWrite(page*guestmem.PageSize, bytes.Repeat([]byte{mask}, 64))
					})
				}
				count++
			})
		},
	}
	if unused {
		s.name, s.expected = "scribble-unused", nil
	}
	return s
}

// ---------------------------------------------------------------------------
// artifact family: canonical buffers and the measured-image cache. (Its
// plan-blob sites are in recover.go, beside the oracle they share with
// the fork family.)

// artifactCorrupt flips one byte of the interned canonical kernel buffer
// at a drawn virtual time. Every guest page staging that kernel aliases
// the same buffer (the CoW fleet path), so the flip is visible to any
// boot that hasn't yet verified — the §4.3 boot verifier must catch it
// against the out-of-band hash page (or the launch digest must diverge).
// Corruption is XOR, so cleanup re-applies it to restore the
// process-global buffer for later trials.
func artifactCorrupt(off int, mask byte, delay time.Duration) site {
	var applied *artifact.Buf
	return site{
		family:   "artifact",
		name:     "kernel-corrupt",
		params:   fmt.Sprintf("off=%d mask=%#02x delay=%s", off, mask, delay),
		expected: []error{verifier.ErrVerification, fleet.ErrDigestMismatch},
		arm: func(h *Harness) {
			h.Eng.After(delay, func() {
				buf := artifact.Lookup(h.Kernel)
				if buf == nil || buf.Len() == 0 {
					return
				}
				off %= buf.Len()
				buf.Corrupt(off, mask)
				applied = buf
			})
		},
		cleanup: func() {
			if applied != nil {
				applied.Corrupt(off, mask)
				applied = nil
			}
		},
	}
}

// cachePoison corrupts the measured-image cache's digest prediction as
// the entry is published — before the fleet provisions it as a broker
// reference value, which is exactly the poisoned-pipeline shape. The
// degraded-mode policy must detect the mismatch, prove the canonical
// bytes intact, evict, replan, and serve the boot cold with an honest
// digest; the trial then classifies Caught via Metrics.Degraded.
func cachePoison(byteIdx int, mask byte) site {
	poisoned := false
	return site{
		family:   "artifact",
		name:     "cache-poison",
		params:   fmt.Sprintf("byte=%d mask=%#02x", byteIdx, mask),
		expected: []error{fleet.ErrDigestMismatch},
		arm: func(h *Harness) {
			h.Cfg.Cache.Subscribe(func(mi *fleet.MeasuredImage) {
				if poisoned {
					return // the degraded replan publishes a fresh, honest entry
				}
				poisoned = true
				mi.Digest[byteIdx] ^= mask
			})
		},
	}
}

// ---------------------------------------------------------------------------
// psp family: tampering inside the launch measurement path.

// pspPreEncrypt scribbles on a launch page in the window between staging
// and encryption — the n-th LAUNCH_UPDATE_DATA across the whole trial.
// The page is still shared, so the write lands; the PSP then honestly
// measures hostile bytes and the digest check refuses the boot (the
// degraded policy retries once — the tamper fires only once — and the
// retry serves honestly).
func pspPreEncrypt(call int, mask byte) site {
	seen := 0
	return site{
		family: "psp",
		name:   "pre-encrypt-tamper",
		params: fmt.Sprintf("call=%d mask=%#02x", call, mask),
		// The launch page hit may be the hash page or page tables (verifier
		// refuses), the MP table (guest kernel refuses), or any other
		// measured page (launch digest diverges from the prediction).
		expected: []error{fleet.ErrDigestMismatch, verifier.ErrVerification, mptable.ErrCorrupt},
		arm: func(h *Harness) {
			h.Host.PSP.PreEncryptTamper = func(mem *guestmem.Memory, gpa uint64, n int) {
				idx := seen
				seen++
				if idx != call {
					return
				}
				_ = mem.HostWrite(gpa, bytes.Repeat([]byte{mask}, min(n, 32)))
			}
		},
	}
}

// pspDigestTamper truncates the launch digest at LAUNCH_FINISH — zeroing
// its second half, the classic truncated-MAC weakening. Fires once per
// trial unless all is set (the weakened-oracle self-test, where every
// launch is tampered and must surface as an ESCAPE).
func pspDigestTamper(all bool) site {
	fired := false
	s := site{
		family:   "psp",
		name:     "digest-truncate",
		params:   fmt.Sprintf("zero=16..31 all=%v", all),
		expected: []error{fleet.ErrDigestMismatch},
		arm: func(h *Harness) {
			h.Host.PSP.DigestTamper = func(d [32]byte) [32]byte {
				if fired && !all {
					return d
				}
				fired = true
				clear(d[16:])
				return d
			}
		},
	}
	if all {
		s.name = "digest-truncate-all"
	}
	return s
}

// ---------------------------------------------------------------------------
// kbs family: evidence corruption, delivery faults, and outages, armed by
// wrapping the harness's broker in a Service decorator.

// kbsProxy decorates the inner broker, letting one site intercept the
// Challenge and Redeem call boundaries (File and Stats pass through the
// embedding). Redeem calls are numbered so a drawn exchange
// can be singled out.
type kbsProxy struct {
	kbs.Service
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
	return px.Service.Challenge(tenant, now)
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
	return px.Service.Redeem(req, now)
}

// kbsCorrupt flips one byte of the report or chain (field) on the drawn
// redeem. The broker's per-exchange signature checks must refuse with a
// denial.
func kbsCorrupt(field string, redeem, off int, mask byte) site {
	return site{
		family:   "kbs",
		name:     "corrupt-" + field,
		params:   fmt.Sprintf("redeem=%d off=%d mask=%#02x", redeem, off, mask),
		expected: []error{kbs.ErrDenied},
		arm: func(h *Harness) {
			h.Service = &kbsProxy{
				Service: h.Service,
				onRedeem: func(idx int, req *kbs.RedeemRequest, now sim.Time) sim.Time {
					if idx != redeem {
						return now
					}
					b := &req.Report
					if field == "chain" {
						b = &req.Chain
					}
					if len(*b) > 0 {
						mut := bytes.Clone(*b)
						mut[off%len(mut)] ^= mask
						*b = mut
					}
					return now
				},
			}
		},
	}
}

// kbsDelay delivers the drawn redeem late — past the nonce TTL — by
// shifting the virtual timestamp the broker sees. The freshness check
// must refuse with an expired denial; no wall-clock sleeping involved.
func kbsDelay(redeem int, delay time.Duration) site {
	return site{
		family:   "kbs",
		name:     "delayed-redeem",
		params:   fmt.Sprintf("redeem=%d delay=%s", redeem, delay),
		expected: []error{kbs.ErrExpired, kbs.ErrDenied},
		arm: func(h *Harness) {
			h.Service = &kbsProxy{
				Service: h.Service,
				onRedeem: func(idx int, req *kbs.RedeemRequest, now sim.Time) sim.Time {
					if idx == redeem {
						return now.Add(delay)
					}
					return now
				},
			}
		},
	}
}

// kbsDuplicate delivers the drawn redeem twice back to back and returns
// the first verdict to the fleet (so the run itself proceeds normally).
// The second, duplicate exchange is the probe: the broker must refuse it
// as a replay — a grant is an ESCAPE regardless of how the run went.
func kbsDuplicate(redeem int) site {
	var (
		fired, granted bool
		dupErr         error
	)
	return site{
		family: "kbs",
		name:   "duplicate-redeem",
		params: fmt.Sprintf("redeem=%d", redeem),
		// The fleet-visible exchange is honest; failures would be unexpected.
		expected: nil,
		arm: func(h *Harness) {
			inner := h.Service
			h.Service = &kbsProxy{
				Service: inner,
				roundTrip: func(idx int, req kbs.RedeemRequest, now sim.Time) (*kbs.RedeemResult, error) {
					res, err := inner.Redeem(req, now)
					if idx == redeem {
						fired = true
						var dup *kbs.RedeemResult
						dup, dupErr = inner.Redeem(req, now)
						granted = dupErr == nil && dup != nil
					}
					return res, err
				},
			}
		},
		verdict: func(res, clean *RunResult) (Outcome, string, bool) {
			if !fired {
				return Unexpected, "trial ran fewer redeems than the drawn duplicate index", true
			}
			if granted {
				return Escape, "broker granted a byte-identical duplicate redeem (replayed nonce accepted)", true
			}
			if errors.Is(dupErr, kbs.ErrReplay) {
				if len(res.failures()) > 0 {
					return Unexpected, fmt.Sprintf("duplicate refused, but the honest exchange failed too: %v", res.failures()[0]), true
				}
				return Caught, "duplicate redeem refused as a replay; honest exchange unaffected", true
			}
			return Unexpected, fmt.Sprintf("duplicate refused with the wrong class: %v", dupErr), true
		},
	}
}

// kbsOutage makes the broker unreachable for a virtual-time window: both
// Challenge and Redeem return a plain transport error. The fleet must
// absorb it — retries with backoff, the circuit breaker opening after
// consecutive transport failures and fast-failing instead of hammering a
// dead broker, half-open recovery after the window — or fail closed with
// transport/breaker/deadline classes. Nothing may be served un-attested.
func kbsOutage(from, span time.Duration) site {
	return site{
		family:   "kbs",
		name:     "outage-window",
		params:   fmt.Sprintf("from=%s span=%s", from, span),
		expected: []error{fleet.ErrKBSUnreachable, kbs.ErrUnavailable, fleet.ErrDeadlineExceeded},
		arm: func(h *Harness) {
			start := sim.Time(0).Add(from)
			end := start.Add(span)
			h.Service = &kbsProxy{
				Service: h.Service,
				outage: func(now sim.Time) error {
					if now >= start && now < end {
						return fmt.Errorf("kbs transport: connection refused (outage window)")
					}
					return nil
				},
			}
		},
		verdict: func(res, clean *RunResult) (Outcome, string, bool) {
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
		},
	}
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
func polForgedRef(bit int) site {
	return site{
		family:   "policy",
		name:     "forged-ref-claim",
		params:   fmt.Sprintf("bit=%d", bit),
		expected: []error{kbs.ErrMeasurement, kbs.ErrDenied},
		arm: func(h *Harness) {
			h.Broker.Policy().Intercept(func(c policy.Claim) policy.Claim {
				if c.Kind != policy.KindMeasurement || c.SigR == nil || c.SigR.BitLen() == 0 {
					return c
				}
				bit := bit % c.SigR.BitLen()
				c.SigR = new(big.Int).SetBit(c.SigR, bit, 1-c.SigR.Bit(bit))
				return c
			})
		},
	}
}

// polRescope intercepts the write path and re-scopes every measurement
// claim to a tenant that never boots. The claim files under the foreign
// tenant's domain — invisible to the booting tenant's evaluation — so
// every redemption must refuse the digest as untrusted. (The rescope also
// breaks the signature, but the scope isolation alone is the defense
// under test: claims filed under one tenant never speak for another.)
func polRescope() site {
	return site{
		family:   "policy",
		name:     "rescoped-ref-claim",
		params:   "scope=tenant-evil",
		expected: []error{kbs.ErrMeasurement, kbs.ErrDenied},
		arm: func(h *Harness) {
			h.Broker.Policy().Intercept(func(c policy.Claim) policy.Claim {
				if c.Kind == policy.KindMeasurement {
					c.Scope = "tenant-evil"
				}
				return c
			})
		},
	}
}

// polExpireRefs is a measurement revocation storm at a drawn virtual
// instant: one RevokeKind call distrusts every reference value at once.
// Exchanges strictly after the instant must be refused (the broker's
// verdict cache is version-keyed, so outstanding grants die with the
// store bump); a storm landing after the last exchange must change
// nothing — Harmless, byte for byte.
func polExpireRefs(at time.Duration) site {
	return site{
		family:   "policy",
		name:     "revoke-refs-storm",
		params:   fmt.Sprintf("at=%s", at),
		expected: []error{kbs.ErrMeasurement, kbs.ErrDenied},
		arm: func(h *Harness) {
			h.Eng.After(at, func() {
				h.Broker.Policy().RevokeKind("*", policy.KindMeasurement, h.Eng.Now())
			})
		},
	}
}

// polRevokeFloor revokes the broker's minimum-TCB platform claim at a
// drawn instant, leaving no platform claim in force. Both gates consult
// the same store: boots admitted after the instant are refused at the
// fleet's serve-time policy check (wrapping policy.ErrDenied), and boots
// already past it are refused at the broker's exchange (a kbs denial).
func polRevokeFloor(at time.Duration) site {
	return site{
		family:   "policy",
		name:     "revoke-platform-floor",
		params:   fmt.Sprintf("at=%s", at),
		expected: []error{policy.ErrDenied, kbs.ErrDenied},
		arm: func(h *Harness) {
			h.Eng.After(at, func() {
				h.Broker.Policy().RevokeClaim("*", policy.FloorClaimID, h.Eng.Now())
			})
		},
	}
}
