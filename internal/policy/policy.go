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
	"fmt"
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
// per-rule denial counters in Stats and the HTTP wire format.
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

// ErrDenied matches every policy denial: errors.Is(err, ErrDenied) is
// true exactly when the engine refused an admission.
var ErrDenied = errors.New("policy: denied")

// Denial is a refusal with the rule that refused and why. It matches
// ErrDenied under errors.Is; DenialOf recovers it to classify by Reason.
type Denial struct {
	Rule   string
	Reason Reason
	Detail string
	// Cert, when non-nil, is the full certificate (decision trace) the
	// evaluation produced alongside the refusal.
	Cert *Certificate
}

// Error implements error.
func (d *Denial) Error() string {
	if d.Detail == "" {
		return fmt.Sprintf("policy: denied (%s/%s)", d.Rule, d.Reason)
	}
	return fmt.Sprintf("policy: denied (%s/%s): %s", d.Rule, d.Reason, d.Detail)
}

// Is matches ErrDenied.
func (d *Denial) Is(target error) bool { return target == ErrDenied }

// DenialOf extracts the policy denial from an error chain, or nil.
func DenialOf(err error) *Denial {
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
