package kbs

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// DefaultNonceTTL bounds how long a challenge stays redeemable when the
// config does not say otherwise.
const DefaultNonceTTL = time.Second

// Config sets the broker's policy floors.
type Config struct {
	// MinTCB is the initial minimum platform TCB, filed as the store's
	// floor claim (Policy().BumpFloor raises it); VCEKs minted below the
	// floor are denied as stale-tcb. Zero accepts any TCB.
	MinTCB TCB
	// MinPolicy are the guest policy bits that must be set (only the
	// boolean gates are enforced, by CheckFloors).
	MinPolicy sev.Policy
	// MinLevel is the minimum SEV feature level.
	MinLevel sev.Level
	// NonceTTL is the challenge lifetime in virtual time
	// (DefaultNonceTTL when zero).
	NonceTTL time.Duration
	// Seed drives nonce generation and secret wrapping.
	Seed int64
}

// PolicyAnchorID names the broker's own signer, anchored in the "*"
// trust domain of its policy store. Every claim the broker files — its
// minimum-TCB floor, and each claim File accepts — is signed under it.
const PolicyAnchorID = "kbs-root"

// RefClaim is the reference value for a launch digest: a measurement
// claim trusting it for every tenant. The full digest is the claim
// identity, so two images differing in any byte file distinct claims,
// and a poisoned publish cannot shadow the honest one behind
// duplicate-ID idempotency.
func RefClaim(digest [32]byte, label string) policy.Claim {
	d := hex.EncodeToString(digest[:])
	return policy.Claim{ID: "ref-" + d, Kind: policy.KindMeasurement, Scope: "*", Subject: d, Note: label}
}

// RevocationClaim distrusts every VCEK of a chip, current TCB or not,
// strictly after at: an exchange at exactly at still admits and one at
// at+1ns is denied, the inclusive boundary of claim expiry and nonce
// TTLs. At zero it is in force from the beginning of time. Revoking a
// chip that never attests is inert, not an error: the broker keeps no
// chip registry.
func RevocationClaim(chipID string, at sim.Time) policy.Claim {
	var nb sim.Time
	if at > 0 {
		// Revocation claims gate from NotBefore inclusive, so in-force
		// starts one instant after the still-admitting boundary.
		nb = at + 1
	}
	return policy.Claim{
		ID:        "revoked-" + chipID,
		Kind:      policy.KindRevocation,
		Scope:     "*",
		Subject:   chipID,
		NotBefore: nb,
		Note:      "broker revocation list",
	}
}

// File's refusals. errClaimKind refuses a claim File will not sign: over
// the Service surface the broker trusts digests and distrusts chips, and
// nothing else, so no caller can lower a floor or delegate the broker's
// anchor. errClaimShape refuses a claim of an accepted kind that is not
// exactly what RefClaim or RevocationClaim builds, so a caller can
// neither name a wildcard or foreign-scoped claim nor pick an ID that
// shadows a later reference value or revocation.
var (
	errClaimKind  = errors.New("kbs: the broker files only measurement and revocation claims")
	errClaimShape = errors.New("kbs: claim is not a broker reference value or revocation")
)

// Broker is the in-process key broker: a transport over a policy store.
// It keeps tenants and nonce state, verifies chains and reports, caches
// chain walks and verdicts (keyed on the store version), and releases
// keys. Every trust decision lives in the store (internal/policy),
// consulted by the engine on every verdict-cache miss, and every trust
// write is a store call: File, RevokeClaim, RevokeKind, BumpFloor.
//
// All broker state is guarded by one mutex; methods never block on
// simulation time — callers charge virtual-time costs themselves (fleet
// charges costmodel.KBSChainVerify only when RedeemResult.ChainCached is
// false).
type Broker struct {
	cfg      Config
	verifier *Verifier
	pol      *policy.Store
	eng      *policy.Engine
	signer   *policy.Signer

	mu       sync.Mutex
	rng      *rand.Rand
	tenants  map[string][]byte // tenant -> secret released on success
	nonces   map[[32]byte]nonceRec
	verdicts map[verdictKey]verdictRec
	stats    Stats
	denials  policy.Ledger // Stats.Denials' table
	reg      *telemetry.Registry
}

// Instrument mirrors the broker's counters (challenges, grants, denials
// by reason, verdict-cache hits and misses) into reg under
// severifast_kbs_* metric names. Nil detaches the mirror.
func (b *Broker) Instrument(reg *telemetry.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reg = reg
}

type nonceRec struct {
	tenant  string
	expires sim.Time
}

// verdictKey identifies one policy/TCB/measurement verdict. Everything
// the verdict depends on is in the key, so cached approvals cannot leak
// across platforms, TCBs, or guest configurations. Revocation, report
// signatures, and nonce binding are deliberately outside the verdict and
// re-checked on every exchange.
type verdictKey struct {
	chipID string
	tcb    uint64
	digest [32]byte
	policy uint64
	level  sev.Level
}

var _ Service = (*Broker)(nil)

// verdictRec is one cached approval. A verdict is only as durable as
// the policy store that minted it: version pins the store state, and
// expires carries the certificate's folded claim expiry (zero = never),
// so a revocation or rotation invalidates every outstanding verdict at
// the next exchange.
type verdictRec struct {
	version uint64
	expires sim.Time
}

// NewBroker builds a broker pinning ark as the authority root. Its store
// starts with the broker's signer anchored in the "*" domain and the
// configured minimum TCB filed as the policy.FloorClaimID platform claim,
// so raising the floor is a store mutation, not a broker rebuild.
func NewBroker(ark *ecdsa.PublicKey, cfg Config) *Broker {
	if cfg.NonceTTL == 0 {
		cfg.NonceTTL = DefaultNonceTTL
	}
	pol := policy.NewStore()
	// The signing stream is split from the nonce/wrap stream: ECDSA
	// signing consumes a nondeterministic number of bytes, so sharing
	// one rand.Rand would smear nondeterminism into challenge nonces.
	signer := policy.NewSigner(PolicyAnchorID, cfg.Seed^0x706f6c69637921) // "policy!"
	if err := pol.AddSigner(signer); err != nil {
		panic(err) // fresh store: cannot collide
	}
	pol.EnsureDomain("*", PolicyAnchorID)
	if err := pol.File(signer, policy.Claim{
		ID:      policy.FloorClaimID,
		Kind:    policy.KindPlatform,
		Scope:   "*",
		Subject: "*",
		MinTCB:  cfg.MinTCB.Encode(),
		Note:    "broker minimum-TCB floor",
	}); err != nil {
		panic(err) // fresh store, fresh signer: cannot fail
	}
	return &Broker{
		cfg:      cfg,
		verifier: NewVerifier(ark),
		pol:      pol,
		eng:      pol.Engine(),
		signer:   signer,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		tenants:  make(map[string][]byte),
		nonces:   make(map[[32]byte]nonceRec),
		verdicts: make(map[verdictKey]verdictRec),
	}
}

// Policy exposes the broker's policy store — the mutable trust state
// behind every verdict. Claims filed, revoked, or rotated here take
// effect on the next exchange via store versioning.
func (b *Broker) Policy() *policy.Store { return b.pol }

// Signer is the broker's anchor, PolicyAnchorID: the issuer an operator
// signs with when filing into or bumping the floor of Policy() directly.
func (b *Broker) Signer() *policy.Signer { return b.signer }

// PolicyEngine returns the engine evaluating the broker's store, for
// callers (fleet admission, cluster dispatch) that gate on the same
// trust domains the broker redeems against.
func (b *Broker) PolicyEngine() *policy.Engine { return b.eng }

// AddTenant registers a tenant and the secret released to its attested
// guests, plus an (initially empty) trust domain of its own so per-tenant
// claims filed via Policy() shadow the shared "*" domain.
func (b *Broker) AddTenant(name string, secret []byte) {
	b.mu.Lock()
	b.tenants[name] = append([]byte(nil), secret...)
	b.mu.Unlock()
	b.pol.EnsureDomain(name)
}

// File implements Service: it rebuilds c as RefClaim or RevocationClaim
// would, refuses it unless the caller's claim is that rebuild (the note
// aside), and signs and files the rebuild under PolicyAnchorID. The
// broker, not the caller, thereby fixes every claim's ID, scope and
// window. A claim whose ID is already filed is success, not ErrDuplicate:
// every shard files the reference value of each image it plans, and a
// revocation may be repeated.
func (b *Broker) File(c policy.Claim) error {
	var want policy.Claim
	switch c.Kind {
	case policy.KindMeasurement:
		raw, err := hex.DecodeString(c.Subject)
		if err != nil || len(raw) != 32 {
			return fmt.Errorf("%w: subject %q is not a 32-byte hex digest", errClaimShape, c.Subject)
		}
		want = RefClaim([32]byte(raw), c.Note)
	case policy.KindRevocation:
		if c.Subject == "" {
			return fmt.Errorf("%w: revocation names no chip", errClaimShape)
		}
		var at sim.Time
		if c.NotBefore > 0 {
			at = c.NotBefore - 1
		}
		want = RevocationClaim(c.Subject, at)
	default:
		return fmt.Errorf("%w: not %q", errClaimKind, c.Kind)
	}
	got := c
	got.Note, got.Issuer, got.SigR, got.SigS = want.Note, "", nil, nil
	if got != want {
		return fmt.Errorf("%w: claim %q", errClaimShape, c.ID)
	}
	if err := b.pol.File(b.signer, want); err != nil && !errors.Is(err, policy.ErrDuplicate) {
		return err
	}
	return nil
}

// Challenge issues a fresh single-use nonce to a tenant. Expired nonces
// are swept here, so an idle broker does not accumulate state.
func (b *Broker) Challenge(tenant string, now sim.Time) (Challenge, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.tenants[tenant]; !ok {
		return Challenge{}, refusal(ReasonTenant, nil, "unknown tenant %q", tenant)
	}
	for n, rec := range b.nonces {
		if now > rec.expires {
			delete(b.nonces, n)
		}
	}
	var c Challenge
	b.rng.Read(c.Nonce[:])
	c.Expires = now + sim.Time(b.cfg.NonceTTL)
	b.nonces[c.Nonce] = nonceRec{tenant: tenant, expires: c.Expires}
	b.stats.Challenges++
	b.reg.Counter("severifast_kbs_challenges_total").Inc()
	return c, nil
}

// BindReportData is the report user-data layout both sides compute: the
// first half binds the guest's ephemeral public key (as the one-shot
// agent's report data does), the second half binds the challenge nonce,
// so a report can neither be replayed under a new nonce nor redeemed for
// a key it was not minted with.
func BindReportData(nonce [32]byte, guestPub []byte) [64]byte {
	var rd [64]byte
	key := sha256.Sum256(guestPub)
	copy(rd[:32], key[:])
	h := sha256.New()
	h.Write([]byte("kbs-nonce"))
	h.Write(nonce[:])
	copy(rd[32:], h.Sum(nil))
	return rd
}

// Redeem runs the full relying-party check sequence over one exchange
// and, if every gate passes, wraps the tenant secret for the attested
// guest key. Each refusal is a broker-gate *policy.Denial; the order
// below is cheapest-first and fails before any cached verdict could mask
// a per-exchange check.
func (b *Broker) Redeem(req RedeemRequest, now sim.Time) (*RedeemResult, error) {
	res, err := b.redeem(req, now)
	b.mu.Lock()
	if err != nil {
		if d := policy.DenialOf(err); d != nil {
			b.denials.Add(d)
			b.reg.Counter("severifast_kbs_denials_total", telemetry.A("reason", d.Key())).Inc()
		}
	} else {
		b.stats.Grants++
		b.reg.Counter("severifast_kbs_grants_total").Inc()
	}
	b.mu.Unlock()
	return res, err
}

func (b *Broker) redeem(req RedeemRequest, now sim.Time) (*RedeemResult, error) {
	// Tenant and nonce gates. The nonce is consumed on first sight —
	// success or failure — which is what makes replay a distinct,
	// deterministic denial rather than a second grant.
	b.mu.Lock()
	secret, tenantOK := b.tenants[req.Tenant]
	rec, nonceOK := b.nonces[req.Nonce]
	delete(b.nonces, req.Nonce)
	b.mu.Unlock()
	if !tenantOK {
		return nil, refusal(ReasonTenant, nil, "unknown tenant %q", req.Tenant)
	}
	if !nonceOK {
		return nil, refusal(ReasonReplay, nil, "nonce unknown or already redeemed")
	}
	if rec.tenant != req.Tenant {
		return nil, refusal(ReasonTenant, nil, "nonce issued to %q, redeemed by %q", rec.tenant, req.Tenant)
	}
	if now > rec.expires {
		return nil, refusal(ReasonExpired, nil, "nonce expired at %v, redeemed at %v", rec.expires, now)
	}
	// The guest key is host-relayed: refuse a wrong-size one before any
	// crypto, so it cannot reach the wrap as an unreasoned ECDH failure.
	if len(req.GuestPub) != 32 {
		return nil, refusal(ReasonMalformed, nil, "guest key is %d bytes, want 32", len(req.GuestPub))
	}

	// Endorsement chain: parse + walk to the pinned root (cached by
	// chain content).
	chain, chainCached, err := b.verifier.VerifyChain(req.Chain)
	if err != nil {
		return nil, err
	}
	chipID := chain.VCEK.ChipID

	r, err := psp.UnmarshalReport(req.Report)
	if err != nil {
		return nil, refusal(ReasonMalformed, err, "report: %v", err)
	}

	// Policy/TCB/measurement verdict, cached per (chip, TCB, digest,
	// guest policy, level). Only approvals are cached, and each cached
	// approval is pinned to the policy-store version that minted it (and
	// to its certificate expiry), so a revocation or claim rotation goes
	// live on the very next exchange instead of being masked by the
	// cache. Report signatures and nonce binding are per-exchange and
	// deliberately outside the verdict.
	vk := verdictKey{
		chipID: chipID,
		tcb:    chain.VCEK.TCBVersion,
		digest: r.Measurement,
		policy: r.Policy,
		level:  r.Level,
	}
	ver := b.pol.Version()
	b.mu.Lock()
	rec2, ok := b.verdicts[vk]
	verdictCached := ok && rec2.version == ver && (rec2.expires == 0 || now <= rec2.expires)
	if verdictCached {
		b.stats.VerdictHit++
		b.reg.Counter("severifast_kbs_verdict_cache_total", telemetry.A("result", "hit")).Inc()
	} else {
		b.stats.VerdictMis++
		b.reg.Counter("severifast_kbs_verdict_cache_total", telemetry.A("result", "miss")).Inc()
	}
	b.mu.Unlock()
	if !verdictCached {
		// Broker-local guest floors (feature level, policy bits) stay
		// outside the claim language; everything platform- and
		// measurement-shaped is the policy engine's call.
		if err := CheckFloors(r, b.cfg.MinLevel, b.cfg.MinPolicy); err != nil {
			return nil, err
		}
		cert, err := b.eng.Evaluate(policy.Evidence{
			Tenant:      req.Tenant,
			ChipID:      chipID,
			TCB:         chain.VCEK.TCBVersion,
			HasPlatform: true,
			Measurement: r.Measurement[:],
		}, now)
		if err != nil {
			// The engine's own verdict, stamped: its rule, reason and
			// claim reach the caller as the engine gave them.
			if d := policy.DenialOf(err); d != nil {
				d.Gate = policy.GateBroker
			}
			return nil, err
		}
		b.mu.Lock()
		b.verdicts[vk] = verdictRec{version: cert.Version, expires: cert.Expires}
		b.mu.Unlock()
	}

	// Per-exchange checks, never cached: the report signature under the
	// chain's VCEK, and the binding of nonce + guest key into the
	// report's user data.
	if err := psp.VerifyReport(chain.VCEK.Key(), r); err != nil {
		return nil, refusal(ReasonForged, err, "%v", err)
	}
	if r.ReportData != BindReportData(req.Nonce, req.GuestPub) {
		return nil, refusal(ReasonBinding, nil, "report data does not bind nonce and guest key")
	}

	b.mu.Lock()
	bundle, err := WrapSecret(b.rng, req.GuestPub, secret)
	b.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("kbs: wrapping secret: %w", err)
	}
	return &RedeemResult{Bundle: bundle, ChainCached: chainCached, VerdictCached: verdictCached}, nil
}

// CheckFloors runs the guest floors that stay outside the claim
// language: r's SEV feature level must reach minLevel, and every boolean
// gate set in minPolicy must be set in r's policy. The broker checks its
// Config's floors with it, and the simulated one-shot exchange its own.
func CheckFloors(r *psp.Report, minLevel sev.Level, minPolicy sev.Policy) error {
	if r.Level < minLevel {
		return refusal(ReasonPolicy, nil, "level %v below minimum %v", r.Level, minLevel)
	}
	pol := sev.DecodePolicy(r.Policy)
	if (minPolicy.NoDebug && !pol.NoDebug) ||
		(minPolicy.NoKeySharing && !pol.NoKeySharing) ||
		(minPolicy.ESRequired && !pol.ESRequired) {
		return refusal(ReasonPolicy, nil, "guest policy %+v below floor", pol)
	}
	return nil
}

// Stats snapshots the broker counters.
func (b *Broker) Stats() (Stats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.Denials = b.denials.Counts(policy.GateBroker)
	s.ChainHits, s.ChainMiss = b.verifier.CacheStats()
	refs, revokedRefs := b.pol.CountKind(policy.KindMeasurement)
	s.RefValues = refs - revokedRefs
	s.Revoked, _ = b.pol.CountKind(policy.KindRevocation)
	s.Tenants = len(b.tenants)
	s.NoncesLive = len(b.nonces)
	return s, nil
}

// ResignReport re-signs a marshaled report under key — how the chaos
// harness's stale-tcb-evidence and revoked-twin-evidence rows model an
// adversary holding a genuine VCEK of another identity (a stale TCB or a
// revoked twin chip): the report body is untouched, only the signature
// moves to the other key.
func ResignReport(reportBytes []byte, key *ecdsa.PrivateKey, rng io.Reader) ([]byte, error) {
	r, err := psp.UnmarshalReport(reportBytes)
	if err != nil {
		return nil, err
	}
	if err := r.Sign(rng, key); err != nil {
		return nil, err
	}
	return r.Marshal(), nil
}
