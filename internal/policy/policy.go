// Package policy is the certifier-style trust-domain engine that gates
// every fleet and cluster admission. It replaces hand-provisioned
// reference values with signed policy claims — "measurement M is trusted
// for tenant T", "platform P with TCB ≥ floor is trusted", "signer S may
// issue claims for scope X" — evaluated by a deterministic engine over an
// evidence package (chain verdict, report fields, measured-image digest)
// to yield an admission certificate carrying the full decision trace, the
// delegation chain behind every contributing claim, and a virtual-time
// expiry.
//
// The shape follows the certifier-framework model of attestation-as-
// policy: trust decisions are claims in a store, not code paths, so
// revocation storms, TCB-floor bumps, and signer rotation are policy
// mutations that take effect at a virtual instant ("Insecure Despite
// Proven Updated" is the motivating disaster: a platform generation's
// VCEKs become untrustworthy at once). Per-tenant trust domains make one
// broker serve mutually-distrusting tenants: claims filed under one
// tenant's domain are invisible to every other tenant, while the "*"
// domain holds operator-wide policy.
//
// Everything is virtual-time deterministic: evaluation charges no
// simulated time, consumes no randomness, and iterates claims in sorted
// ID order, so the decision trace for a given (store state, evidence,
// instant) is byte-identical across runs.
//
// Boundary-instant convention, shared with the key broker's nonce check:
// expiry instants are inclusive. A claim is still good at exactly its
// NotAfter (or revocation) instant and invalid strictly after it, just as
// a challenge nonce is still redeemable at exactly Challenge.Expires.
package policy

import (
	"errors"
	"math/big"

	"github.com/severifast/severifast/internal/sim"
)

// Kind classifies what a claim asserts.
type Kind string

// Claim kinds.
const (
	// KindMeasurement: Subject (hex launch digest) is a trusted
	// measurement for the claim's scope.
	KindMeasurement Kind = "measurement"
	// KindPlatform: platforms whose chip ID matches Subject ("*" for
	// any) running at TCB ≥ MinTCB are trusted.
	KindPlatform Kind = "platform"
	// KindDelegation: the signer named by Subject may issue claims for
	// the claim's scope. Delegations chain: the engine walks them back
	// to a domain anchor and records the path in the certificate.
	KindDelegation Kind = "delegation"
	// KindRevocation: the platform named by Subject (a chip ID) is
	// distrusted while the claim is in force — a positive statement of
	// distrust, which is what makes a revocation storm one policy write
	// instead of a provisioning teardown.
	KindRevocation Kind = "revocation"
)

// Rules, in evaluation order. Every certificate carries one RuleResult
// per rule, so traces are fixed-shape and diffable.
const (
	RuleDomain      = "domain"
	RulePlatform    = "platform"
	RuleMeasurement = "measurement"
)

// Reason classifies a denial. The string form is stable: it keys the
// denial counters and crosses the HTTP wire. The broker's own are in
// internal/kbs.
type Reason string

// Denial reasons.
const (
	ReasonUnknownDomain      Reason = "unknown-domain"        // no trust domain covers the tenant
	ReasonPlatformUntrusted  Reason = "platform-untrusted"    // no platform claim names the chip
	ReasonTCBFloor           Reason = "tcb-below-floor"       // platform claim found, TCB floor unmet
	ReasonRevoked            Reason = "platform-revoked"      // an in-force revocation claim names the chip
	ReasonMeasurementUnknown Reason = "measurement-untrusted" // no measurement claim names the digest
	ReasonExpired            Reason = "claim-expired"         // matching claim outside its validity window
	ReasonForged             Reason = "claim-forged"          // matching claim fails signature verification
	ReasonScope              Reason = "out-of-scope"          // matching claim's scope does not cover the tenant
	ReasonUnauthorized       Reason = "issuer-unauthorized"   // issuer has no anchor/delegation path
)

// ErrDenied matches every engine verdict, at whichever gate it refused.
var ErrDenied = errors.New("policy: denied")

// Gate names where a refusal was issued; zero is a verdict not yet
// stamped by the gate that asked for it.
type Gate uint8

// The gates, in the order a boot passes them.
const (
	GateDispatch Gate = iota + 1 // the cluster's placement gate
	GateFleet                    // a fleet's admission gate
	GateBroker                   // the key broker's redemption
	numGates
)

// String is the gate's word in a denial spike's keys.
func (g Gate) String() string { return [...]string{"engine", "dispatch", "fleet", "kbs"}[g] }

// Denial is one refusal: the gate, the engine rule and reason (no rule
// for the broker's own checks), and the claim that decided it. An engine
// verdict reaches its gate as this value, stamped, and crosses the wire.
type Denial struct {
	Gate   Gate
	Rule   string
	Reason Reason
	Detail string
	Claim  string       // the revocation naming the chip, or the first claim refused
	Cert   *Certificate // the evaluation's decision trace, for a verdict
	Cause  error        // the failure behind it, e.g. a report's parse error
}

// Key is the word a refusal is counted under: "rule/reason", or at the
// broker its own reason, or for a verdict stale-tcb, revoked, measurement
// or policy.
func (d *Denial) Key() string {
	switch {
	case d.Rule == "" && d.Reason == "":
		return ""
	case d.Gate != GateBroker:
		return d.Rule + "/" + string(d.Reason)
	case d.Reason == ReasonTCBFloor:
		return "stale-tcb"
	case d.Reason == ReasonRevoked:
		return "revoked"
	case d.Rule == RuleMeasurement || d.Reason == ReasonMeasurementUnknown:
		return "measurement"
	case d.Rule != "":
		return "policy"
	}
	return string(d.Reason)
}

// Error implements error: "kbs: denied (key): detail" at the broker,
// "policy: denied (rule/reason): detail" elsewhere.
func (d *Denial) Error() string {
	prefix := "policy: denied"
	if d.Gate == GateBroker {
		prefix = "kbs: denied"
	}
	switch k := d.Key(); {
	case k == "":
		return prefix
	case d.Detail == "":
		return prefix + " (" + k + ")"
	default:
		return prefix + " (" + k + "): " + d.Detail
	}
}

// Is matches ErrDenied when d is an engine verdict, and a same-gate
// Denial with no key or d's key.
func (d *Denial) Is(target error) bool {
	if target == ErrDenied {
		return d.Rule != ""
	}
	t, ok := target.(*Denial)
	return ok && t.Gate == d.Gate && (t.Key() == "" || t.Key() == d.Key())
}

// Unwrap exposes the cause, if any.
func (d *Denial) Unwrap() error { return d.Cause }

// DenialOf extracts the denial from an error chain, or nil; a bare one
// without errors.As, whose target escapes.
func DenialOf(err error) *Denial {
	if d, ok := err.(*Denial); ok {
		return d
	}
	var d *Denial
	if errors.As(err, &d) {
		return d
	}
	return nil
}

// Claim is one signed policy statement. The signature (ECDSA P-384, like
// the PSP certificate chain) covers every field except SigR/SigS via the
// canonical wire encoding, so a claim cannot be re-scoped, re-subjected,
// or extended in time without the issuer's key.
type Claim struct {
	// ID names the claim within its store; revocation targets it.
	ID string
	// Kind selects the rule the claim feeds.
	Kind Kind
	// Scope is the trust domain the claim speaks for ("*" = every
	// tenant). A claim filed in a domain whose tenant its scope does not
	// cover is dead weight: the engine refuses it as out-of-scope.
	Scope string
	// Subject is kind-dependent: a hex launch digest, a chip ID ("*"
	// for any platform), or a delegate signer ID.
	Subject string
	// MinTCB is the encoded TCB floor for platform claims (kbs.TCB
	// layout); zero accepts any TCB.
	MinTCB uint64
	// NotBefore/NotAfter bound validity in virtual time. NotAfter zero
	// means no expiry; the boundary instant itself is valid (see the
	// package comment).
	NotBefore sim.Time
	NotAfter  sim.Time
	// Note is an operator label carried in the signed body.
	Note string
	// Issuer names the signer whose key produced SigR/SigS.
	Issuer string
	SigR   *big.Int
	SigS   *big.Int
}

// windowValid reports whether now falls inside [NotBefore, NotAfter]
// (inclusive at both boundary instants; NotAfter zero = no expiry).
func (c *Claim) windowValid(now sim.Time) bool {
	if now < c.NotBefore {
		return false
	}
	return c.NotAfter == 0 || now <= c.NotAfter
}

// tcbAtLeast compares two encoded TCB vectors component-wise (the
// kbs.TCB layout: bootloader<<56 | tee<<48 | snp<<8 | microcode). A
// platform is only current if every component is current — the same rule
// AMD specifies and internal/kbs enforces.
func tcbAtLeast(got, min uint64) bool {
	return uint8(got>>56) >= uint8(min>>56) &&
		uint8(got>>48) >= uint8(min>>48) &&
		uint8(got>>8) >= uint8(min>>8) &&
		uint8(got) >= uint8(min)
}

// minExpiry folds b into a: the earlier of two expiry instants, where
// zero means "never expires".
func minExpiry(a, b sim.Time) sim.Time {
	if b == 0 {
		return a
	}
	if a == 0 || b < a {
		return b
	}
	return a
}
