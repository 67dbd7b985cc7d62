// Package kbs is the key broker service: the multi-tenant relying party
// that gates secret release on SEV attestation evidence. It models the
// production trust shape around the paper's attestation flow (§2.4 Fig. 1
// steps 5-8, §6.1's attestation server on the boot-critical path):
//
//   - A key authority stands in for AMD's key hierarchy: per-host VCEKs
//     are derived from a TCB-versioned seed and endorsed by an ASK/ARK
//     chain with real ECDSA P-384 signatures (authority.go).
//   - A broker verifies evidence the way SNPGuard-style verifiers do:
//     chain walk against the pinned root, report signature, guest
//     policy/level floors, nonce freshness with anti-replay, and key
//     binding (broker.go).
//   - What is trusted is not the broker's to keep. Reference launch
//     digests, revoked chips and the minimum-TCB floor are signed claims
//     in a policy store (internal/policy) that the broker's engine
//     evaluates, and every change to them is a store call. The broker is
//     the transport: its one trust write, File, signs a measurement or
//     revocation claim under its own anchor and files it.
//   - Verification results are cached — chain walks by chain content,
//     verdicts by (chip, TCB, digest) and store version — so hot boots
//     skip redundant public-key crypto without weakening any per-exchange
//     check: signatures and nonce binding are verified on every redeem
//     (verifier.go, broker.go).
//
// Every denial carries a distinct Reason so callers (the fleet
// orchestrator's denial counters, the chaos oracle, tests, operators)
// can count and assert *why* an exchange was refused, not just that it
// failed.
package kbs

import (
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
)

// Reason classifies why the broker refused an exchange. The string form
// is stable: it keys denial counters in fleet reports and the HTTP wire
// format.
type Reason string

// Denial reasons, one per enforcement step.
const (
	ReasonTenant      Reason = "tenant"      // unknown tenant or nonce/tenant mismatch
	ReasonReplay      Reason = "replay"      // nonce unknown or already consumed
	ReasonExpired     Reason = "expired"     // nonce past its TTL
	ReasonMalformed   Reason = "malformed"   // report or chain bytes fail to parse
	ReasonForged      Reason = "forged"      // chain or report signature invalid
	ReasonRevoked     Reason = "revoked"     // VCEK's chip ID is on the revocation list
	ReasonStaleTCB    Reason = "stale-tcb"   // VCEK minted below the minimum TCB
	ReasonPolicy      Reason = "policy"      // guest policy/level below the floor
	ReasonMeasurement Reason = "measurement" // launch digest not in the reference store
	ReasonBinding     Reason = "binding"     // report data does not bind nonce+guest key
	// ReasonUnavailable is not a broker verdict: it marks an exchange the
	// caller refused to attempt because the broker is considered down
	// (the fleet's circuit breaker fast-failing while open). It lives in
	// the denial taxonomy so breaker refusals classify as attestation
	// denials — the boot was refused a key — while staying countable
	// apart from genuine policy verdicts.
	ReasonUnavailable Reason = "unavailable"
)

// ErrDenied matches every broker denial: errors.Is(err, ErrDenied) is
// true exactly when the broker refused the exchange (as opposed to an
// internal or transport failure).
var ErrDenied = errors.New("kbs: denied")

// Sentinels for errors.Is against a specific reason, e.g.
// errors.Is(err, kbs.ErrReplay).
var (
	ErrReplay      = &Denial{Reason: ReasonReplay}
	ErrExpired     = &Denial{Reason: ReasonExpired}
	ErrMeasurement = &Denial{Reason: ReasonMeasurement}
	ErrUnavailable = &Denial{Reason: ReasonUnavailable}
)

// Denial is a refusal with its reason. It matches ErrDenied and any
// Denial with the same Reason under errors.Is.
type Denial struct {
	Reason Reason
	Detail string
	// Cause, when non-nil, is the underlying error behind the refusal
	// (e.g. the parse failure behind a malformed denial), reachable
	// through errors.Is/As via Unwrap. Detail stays the stable wire/log
	// string; Cause preserves the chain for programmatic classification.
	Cause error
}

// Error implements error.
func (d *Denial) Error() string {
	if d.Detail == "" {
		return fmt.Sprintf("kbs: denied (%s)", d.Reason)
	}
	return fmt.Sprintf("kbs: denied (%s): %s", d.Reason, d.Detail)
}

// Is matches ErrDenied and same-reason Denials.
func (d *Denial) Is(target error) bool {
	if target == ErrDenied {
		return true
	}
	t, ok := target.(*Denial)
	return ok && t.Reason == d.Reason
}

// Unwrap exposes the underlying cause, if any.
func (d *Denial) Unwrap() error { return d.Cause }

// deny builds a reasoned denial.
func deny(r Reason, format string, args ...any) error {
	return &Denial{Reason: r, Detail: fmt.Sprintf(format, args...)}
}

// denyCause builds a reasoned denial that keeps err reachable through
// the error chain, so callers can classify by the root failure (e.g.
// psp parse sentinels behind a malformed denial) and not only by reason.
func denyCause(r Reason, err error, format string, args ...any) error {
	return &Denial{Reason: r, Detail: fmt.Sprintf(format, args...), Cause: err}
}

// ReasonOf extracts the denial reason from an error chain, or "" if the
// error is not a broker denial.
func ReasonOf(err error) Reason {
	var d *Denial
	if errors.As(err, &d) {
		return d.Reason
	}
	return ""
}

// Challenge is a freshness nonce issued to one tenant. The guest must
// fold it into the attestation report's user data (BindReportData), which
// proves the report postdates the challenge.
type Challenge struct {
	Nonce   [32]byte
	Expires sim.Time // virtual-time deadline for redeeming
}

// RedeemRequest carries one attestation exchange: the evidence (report +
// endorsement chain), the channel key, and the challenge being answered.
type RedeemRequest struct {
	Tenant   string
	Nonce    [32]byte
	Report   []byte // psp.Report wire format
	Chain    []byte // psp.Chain wire format (VCEK, ASK, ARK)
	GuestPub []byte // guest's ephemeral X25519 public key
}

// RedeemResult is a granted exchange: the tenant secret wrapped for the
// guest key, plus cache telemetry so callers can charge virtual time only
// for the crypto that actually ran.
type RedeemResult struct {
	Bundle *Bundle
	// ChainCached reports whether the endorsement chain walk was served
	// from the verifier cache (hot boot) rather than recomputed.
	ChainCached bool
	// VerdictCached reports whether the policy/TCB/measurement verdict
	// was served from the broker's verdict cache.
	VerdictCached bool
}

// Stats is a point-in-time snapshot of broker counters. RefValues and
// Revoked are read from the policy store: its un-revoked measurement
// claims and its revocation claims, however they were filed.
type Stats struct {
	Challenges int
	Grants     int
	Denials    map[string]int // reason -> count
	ChainHits  int
	ChainMiss  int
	VerdictHit int
	VerdictMis int
	RefValues  int
	Revoked    int
	Tenants    int
	NoncesLive int
}

// Service is the broker surface the fleet orchestrator speaks. Broker
// implements it in process; Client implements it over HTTP against
// cmd/sevf-attestd. Virtual time is passed in by the caller — the broker
// never reads a wall clock, which keeps runs reproducible.
type Service interface {
	Challenge(tenant string, now sim.Time) (Challenge, error)
	Redeem(req RedeemRequest, now sim.Time) (*RedeemResult, error)
	// File signs a measurement claim (a reference value, RefClaim) or a
	// revocation claim (a distrusted chip, RevocationClaim) under the
	// broker's anchor and files it in the broker's policy store. Any
	// other kind, and any claim that is not exactly what RefClaim or
	// RevocationClaim builds (its note aside), is refused. Filing a claim
	// whose ID is already filed succeeds.
	File(c policy.Claim) error
	Stats() (Stats, error)
}
