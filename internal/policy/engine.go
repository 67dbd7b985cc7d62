package policy

import (
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/severifast/severifast/internal/sim"
)

// maxDelegationDepth bounds the delegation walk from a claim's issuer
// back to a domain anchor.
const maxDelegationDepth = 8

// Evidence is what an admission presents to the engine. Fields are
// optional by stage: a pre-boot fleet admission asserts only tenant and
// platform, while a broker redemption additionally asserts the measured
// launch digest from a verified report. The engine evaluates exactly the
// rules the evidence asserts and records the rest as skipped, so the
// certificate's shape is the same either way.
type Evidence struct {
	// Tenant selects the trust domain (plus the "*" operator domain).
	Tenant string
	// ChipID and TCB describe the platform; HasPlatform marks them
	// asserted (a zero TCB is a legal assertion, not an absence).
	ChipID      string
	TCB         uint64
	HasPlatform bool
	// Measurement is the launch digest, nil when not asserted.
	Measurement []byte
}

// RuleResult is one rule's entry in the decision trace.
type RuleResult struct {
	Rule    string `json:"rule"`
	Outcome string `json:"outcome"` // "pass", "deny", or "skip"
	Reason  string `json:"reason,omitempty"`
	// ClaimID names the claim that decided the rule (granted it, or was
	// the first candidate refused).
	ClaimID string `json:"claim,omitempty"`
	// Chain is the delegation path behind the deciding claim, anchor
	// first, issuer last.
	Chain  []string `json:"chain,omitempty"`
	Detail string   `json:"detail,omitempty"`
}

// Certificate is the admission decision with its full trace. It is
// valid while the store version it was minted under still stands and
// virtual time has not passed its expiry; Engine.Valid checks both, so a
// revocation storm (a store mutation) invalidates every outstanding
// certificate at once.
type Certificate struct {
	Tenant   string       `json:"tenant"`
	Decision string       `json:"decision"` // "allow" or "deny"
	Rules    []RuleResult `json:"rules"`
	// Expires is the earliest expiry instant among contributing claims,
	// anchors, and delegations (zero = no expiry). The boundary instant
	// is valid, per the package convention.
	Expires sim.Time `json:"expires_ns"`
	Version uint64   `json:"version"`
	At      sim.Time `json:"at_ns"`
	// rules backs Rules: one result per rule, a denial in place of the
	// rule it refuses, so a certificate is one allocation.
	rules [3]RuleResult
}

// Engine evaluates evidence against its store. It is pure over (store
// state, evidence, instant): no randomness, no virtual-time charges,
// claims consulted in sorted ID order — the decision trace is
// byte-identical across runs.
type Engine struct {
	store *Store
}

// Valid reports whether a certificate still stands: minted under the
// store's current version, decision "allow", and not past its expiry
// instant.
func (e *Engine) Valid(cert *Certificate, now sim.Time) bool {
	if cert == nil || cert.Decision != "allow" {
		return false
	}
	s := e.store
	s.mu.Lock()
	v := s.version
	s.mu.Unlock()
	return cert.Version == v && (cert.Expires == 0 || now <= cert.Expires)
}

// Evaluate runs the rule sequence — domain, platform, measurement — over
// the evidence at a virtual instant. It returns the certificate in both
// outcomes; on denial the error is a *Denial carrying the certificate,
// so callers can log the full trace of a refusal.
func (e *Engine) Evaluate(ev Evidence, now sim.Time) (*Certificate, error) {
	s := e.store
	s.mu.Lock()
	defer s.mu.Unlock()

	cert := &Certificate{Tenant: ev.Tenant, Decision: "allow", Version: s.version, At: now}
	cert.Rules = cert.rules[:0]
	refuse := func(rule string, reason Reason, claimID, detail string) (*Certificate, error) {
		cert.Decision = "deny"
		cert.Expires = 0
		cert.Rules = append(cert.Rules, RuleResult{
			Rule: rule, Outcome: "deny", Reason: string(reason), ClaimID: claimID, Detail: detail,
		})
		d := &Denial{Rule: rule, Reason: reason, Detail: detail, Claim: claimID, Cert: cert}
		s.record(d)
		return cert, d
	}

	// Rule 1: some trust domain must cover the tenant. The tenant's own
	// domain is consulted first, then the "*" operator domain — claims
	// filed under one tenant never speak for another.
	doms := make([]*domain, 0, 2)
	if d := s.domains[ev.Tenant]; d != nil && ev.Tenant != "" {
		doms = append(doms, d)
	}
	if d := s.domains["*"]; d != nil && ev.Tenant != "*" {
		doms = append(doms, d)
	}
	if len(doms) == 0 {
		return refuse(RuleDomain, ReasonUnknownDomain, "",
			fmt.Sprintf("no trust domain covers tenant %q", ev.Tenant))
	}
	detail := doms[0].detail
	if len(doms) == 2 {
		detail = detail + "," + doms[1].name
	}
	cert.Rules = append(cert.Rules, RuleResult{Rule: RuleDomain, Outcome: "pass", Detail: detail})

	// Rule 2: the platform. In-force revocation claims win over any
	// platform claim — distrust is a positive statement, not an absence.
	if !ev.HasPlatform {
		cert.Rules = append(cert.Rules, RuleResult{Rule: RulePlatform, Outcome: "skip"})
	} else {
		for _, d := range doms {
			for _, rec := range d.claims {
				if rec.claim.Kind != KindRevocation || rec.claim.Subject != ev.ChipID {
					continue
				}
				if chain, _, why := s.check(d, rec, ev.Tenant, now); why == "" {
					res, err := refuse(RulePlatform, ReasonRevoked, rec.claim.ID,
						fmt.Sprintf("chip %q revoked", ev.ChipID))
					res.Rules[len(res.Rules)-1].Chain = chain
					return res, err
				}
				// A revocation that comes into force later (its NotBefore,
				// or its issuer's authority, is in the future) bounds the
				// certificate's life to the last instant before it bites:
				// without this, a verdict cached before then would outlive
				// the revocation, since the store version only bumps at
				// filing time.
				cert.Expires = minExpiry(cert.Expires, s.lastBeforeBite(d, rec, ev.Tenant, now))
			}
		}
		pass, firstReason, firstID, firstDetail := RuleResult{}, Reason(""), "", ""
		granted := false
		for _, d := range doms {
			if granted {
				break
			}
			for _, rec := range d.claims {
				c := &rec.claim
				if c.Kind != KindPlatform || (c.Subject != "*" && c.Subject != ev.ChipID) {
					continue
				}
				chain, expiry, why := s.check(d, rec, ev.Tenant, now)
				if why == "" && !tcbAtLeast(ev.TCB, c.MinTCB) {
					why = ReasonTCBFloor
				}
				if why != "" {
					if firstReason == "" {
						firstReason, firstID = why, c.ID
						firstDetail = fmt.Sprintf("claim %q refused for chip %q", c.ID, ev.ChipID)
						if why == ReasonTCBFloor {
							firstDetail = fmt.Sprintf("platform TCB %#x below claim %q floor %#x", ev.TCB, c.ID, c.MinTCB)
						}
					}
					continue
				}
				pass = RuleResult{Rule: RulePlatform, Outcome: "pass", ClaimID: c.ID, Chain: chain,
					Detail: fmt.Sprintf("chip %q at TCB %#x", ev.ChipID, ev.TCB)}
				cert.Expires = minExpiry(cert.Expires, expiry)
				granted = true
				break
			}
		}
		if !granted {
			if firstReason == "" {
				firstReason = ReasonPlatformUntrusted
				firstDetail = fmt.Sprintf("no platform claim names chip %q", ev.ChipID)
			}
			return refuse(RulePlatform, firstReason, firstID, firstDetail)
		}
		cert.Rules = append(cert.Rules, pass)
	}

	// Rule 3: the measurement.
	if ev.Measurement == nil {
		cert.Rules = append(cert.Rules, RuleResult{Rule: RuleMeasurement, Outcome: "skip"})
	} else {
		digest := hex.EncodeToString(ev.Measurement)
		pass, firstReason, firstID, firstDetail := RuleResult{}, Reason(""), "", ""
		granted := false
		for _, d := range doms {
			if granted {
				break
			}
			for _, rec := range d.claims {
				c := &rec.claim
				if c.Kind != KindMeasurement || (c.Subject != "*" && c.Subject != digest) {
					continue
				}
				chain, expiry, why := s.check(d, rec, ev.Tenant, now)
				if why != "" {
					if firstReason == "" {
						firstReason, firstID = why, c.ID
						firstDetail = fmt.Sprintf("claim %q refused for digest %.16s", c.ID, digest)
					}
					continue
				}
				pass = RuleResult{Rule: RuleMeasurement, Outcome: "pass", ClaimID: c.ID, Chain: chain,
					Detail: fmt.Sprintf("digest %.16s", digest)}
				cert.Expires = minExpiry(cert.Expires, expiry)
				granted = true
				break
			}
		}
		if !granted {
			if firstReason == "" {
				firstReason = ReasonMeasurementUnknown
				firstDetail = fmt.Sprintf("launch digest %.16s not trusted", digest)
			}
			return refuse(RuleMeasurement, firstReason, firstID, firstDetail)
		}
		cert.Rules = append(cert.Rules, pass)
	}

	s.record(nil)
	return cert, nil
}

// check runs the full validity sequence over one claim record for a
// tenant at an instant: scope, validity window (including revocation),
// signature (memoized), and issuer authority (anchor or delegation
// chain). It returns the delegation chain and the record's folded expiry
// on success, or the refusing Reason. Called with s.mu held.
func (s *Store) check(d *domain, rec *claimRec, tenant string, now sim.Time) ([]string, sim.Time, Reason) {
	c := &rec.claim
	if !scopeCovers(c.Scope, tenant) {
		return nil, 0, ReasonScope
	}
	if !rec.validAt(now) {
		return nil, 0, ReasonExpired
	}
	if !s.sigValid(rec) {
		return nil, 0, ReasonForged
	}
	chain, anchorExp, ok := s.authority(d, c.Issuer, tenant, now, 0, nil)
	if !ok {
		return nil, 0, ReasonUnauthorized
	}
	return chain, minExpiry(rec.effectiveExpiry(), anchorExp), ""
}

// sigValid verifies the record's signature once and memoizes the
// verdict; the claim is immutable after filing, so the memo is sound.
// Called with s.mu held.
func (s *Store) sigValid(rec *claimRec) bool {
	if !rec.sigChecked {
		pub := s.signers[rec.claim.Issuer]
		rec.sigOK = pub != nil && verifyClaim(&rec.claim, pub)
		rec.sigChecked = true
	}
	return rec.sigOK
}

// authority resolves an issuer back to a domain anchor: directly when an
// anchor window covers the instant, otherwise through delegation claims
// ("signer S may issue claims for scope X"), walked breadth-first in
// sorted claim order with a depth bound and cycle guard. The returned
// chain lists the path anchor-first; the expiry folds every window on
// the path. Called with s.mu held.
func (s *Store) authority(d *domain, issuer, tenant string, now sim.Time, depth int, seen map[string]bool) ([]string, sim.Time, bool) {
	for _, a := range d.anchors {
		if a.ID == issuer && a.active(now) {
			return []string{issuer}, a.Until, true
		}
	}
	if depth >= maxDelegationDepth || seen[issuer] {
		return nil, 0, false
	}
	if seen == nil {
		seen = make(map[string]bool, 4)
	}
	seen[issuer] = true
	for _, rec := range d.claims {
		c := &rec.claim
		if c.Kind != KindDelegation || c.Subject != issuer {
			continue
		}
		if !scopeCovers(c.Scope, tenant) || !rec.validAt(now) || !s.sigValid(rec) {
			continue
		}
		parent, parentExp, ok := s.authority(d, c.Issuer, tenant, now, depth+1, seen)
		if !ok {
			continue
		}
		exp := minExpiry(parentExp, rec.effectiveExpiry())
		return append(parent, issuer), exp, true
	}
	return nil, 0, false
}

// lastBeforeBite returns one instant before the first after now at
// which the revocation rec would bite, or zero if none does while the
// store stands. A claim only comes into force where a window opens — its
// own NotBefore, an anchor's From, a delegation's NotBefore — so trying
// every anchor's From and every claim's NotBefore finds that instant.
// Called with s.mu held.
func (s *Store) lastBeforeBite(d *domain, rec *claimRec, tenant string, now sim.Time) (last sim.Time) {
	try := func(at sim.Time) {
		if now < at && (last == 0 || at <= last) {
			if _, _, why := s.check(d, rec, tenant, at); why == "" {
				last = at - 1
			}
		}
	}
	for _, a := range d.anchors {
		try(a.From)
	}
	for _, r := range d.claims {
		try(r.claim.NotBefore)
	}
	return last
}

// scopeCovers reports whether a claim scope speaks for a tenant.
func scopeCovers(scope, tenant string) bool {
	return scope == "*" || scope == tenant
}

// Permissive returns the shared default-allow engine: one wildcard
// domain whose two claims trust every platform and every measurement,
// with no expiry. It is what fleet and cluster gates
// fall back to when no policy is configured, so every admission flows
// through Evaluate while the default behaviour — and every golden-pinned
// virtual-time artifact — is unchanged.
func Permissive() *Engine {
	permissiveOnce.Do(func() {
		s := NewStore()
		sg := NewSigner("permissive-root", 0x7065726d)
		if err := s.AddSigner(sg); err != nil {
			panic(err.Error())
		}
		s.EnsureDomain("*", sg.ID)
		for _, c := range []Claim{
			{ID: "allow-any-platform", Kind: KindPlatform, Scope: "*", Subject: "*", Note: "default allow"},
			{ID: "allow-any-measurement", Kind: KindMeasurement, Scope: "*", Subject: "*", Note: "default allow"},
		} {
			if err := s.File(sg, c); err != nil {
				panic(err.Error())
			}
		}
		permissiveEngine = s.Engine()
	})
	return permissiveEngine
}

var (
	permissiveOnce   sync.Once
	permissiveEngine *Engine
)
