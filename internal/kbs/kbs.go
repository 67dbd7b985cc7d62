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
// Every refusal is a broker-gate *policy.Denial, with a Reason below or
// the engine's own verdict, so callers count and assert *why* an
// exchange was refused by its Key, not just that it failed.
package kbs

import (
	"fmt"

	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
)

// The broker's own refusals, one per check it runs itself; an engine
// verdict keeps the engine's reason.
const (
	ReasonTenant    policy.Reason = "tenant"    // unknown tenant or nonce/tenant mismatch
	ReasonReplay    policy.Reason = "replay"    // nonce unknown or already consumed
	ReasonExpired   policy.Reason = "expired"   // nonce past its TTL
	ReasonMalformed policy.Reason = "malformed" // report or chain bytes fail to parse
	ReasonForged    policy.Reason = "forged"    // chain or report signature invalid
	ReasonBinding   policy.Reason = "binding"   // report data does not bind nonce+guest key
	ReasonPolicy    policy.Reason = "policy"    // guest policy/level below the floor (CheckFloors)
	// ReasonUnavailable is not a broker verdict: it marks an exchange the
	// caller refused to attempt because the broker is considered down
	// (the fleet's circuit breaker fast-failing while open). It lives in
	// the denial taxonomy so breaker refusals classify as attestation
	// denials — the boot was refused a key — while staying countable
	// apart from genuine policy verdicts.
	ReasonUnavailable policy.Reason = "unavailable"
)

// ErrDenied matches every broker denial: errors.Is(err, ErrDenied) is
// true exactly when the broker refused the exchange (as opposed to an
// internal or transport failure).
var ErrDenied error = &policy.Denial{Gate: policy.GateBroker}

// Sentinels for errors.Is against one key, e.g.
// errors.Is(err, kbs.ErrReplay).
var (
	ErrReplay      = &policy.Denial{Gate: policy.GateBroker, Reason: ReasonReplay}
	ErrExpired     = &policy.Denial{Gate: policy.GateBroker, Reason: ReasonExpired}
	ErrMeasurement = &policy.Denial{Gate: policy.GateBroker, Reason: policy.ReasonMeasurementUnknown}
	ErrUnavailable = &policy.Denial{Gate: policy.GateBroker, Reason: ReasonUnavailable}
)

// refusal is the broker's own refusal for reason r.
func refusal(r policy.Reason, cause error, format string, args ...any) error {
	return &policy.Denial{Gate: policy.GateBroker, Reason: r, Detail: fmt.Sprintf(format, args...), Cause: cause}
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
	Denials    map[string]int // Denial.Key -> count, nil when none
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
}
