package kbs_test

import (
	"errors"
	"net/http/httptest"
	"testing"

	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// TestRevokeUnknownTargetSemantics pins the single unknown-target rule
// the storm layer leans on. Every store mutation naming something the
// store does not hold is a typed ErrNotFound, and filing an ID already
// filed is a typed ErrDuplicate. Revoking a chip is neither: it files a
// new revocation claim, which succeeds for a chip that never attests
// (the broker keeps no chip registry). Idempotency is the caller's
// explicit choice — the broker's File ignores ErrDuplicate, so a
// repeated revocation or reference value succeeds in process and over
// HTTP alike.
func TestRevokeUnknownTargetSemantics(t *testing.T) {
	auth := kbs.NewAuthority(7)
	b := newBroker(auth, kbs.Config{Seed: 3})
	pol := b.Policy()

	// Store path: a never-enrolled chip revokes; repeating is ErrDuplicate.
	ghost := kbs.RevocationClaim("chip-never-enrolled", 0)
	if err := pol.File(b.Signer(), ghost); err != nil {
		t.Fatalf("revoking unknown chip: %v", err)
	}
	if err := pol.File(b.Signer(), ghost); !errors.Is(err, policy.ErrDuplicate) {
		t.Fatalf("repeating a revocation in the store: %v, want ErrDuplicate", err)
	}
	// Broker path: the same repeat is success.
	if err := b.File(ghost); err != nil {
		t.Fatalf("repeating a revocation through the broker: %v", err)
	}
	if err := b.File(kbs.RevocationClaim("chip-also-unknown", 5_000)); err != nil {
		t.Fatalf("timed revocation of an unknown chip: %v", err)
	}

	// HTTP client path agrees: a new and a repeated revocation are 200,
	// not a denial or server error.
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	c := &kbs.Client{Base: srv.URL}
	for i := 0; i < 2; i++ {
		if err := c.File(kbs.RevocationClaim("chip-wire-ghost", 0)); err != nil {
			t.Fatalf("remote revoke %d of unknown chip: %v", i, err)
		}
	}
	if s := remoteStats(t, srv.URL); s.Revoked != 3 {
		t.Fatalf("revocation claims = %d, want 3", s.Revoked)
	}

	// Mutations of things the store does not hold are ErrNotFound.
	floor := policy.FloorClaimID
	for name, err := range map[string]error{
		"unknown claim":         pol.RevokeClaim("*", "no-such-claim", 0),
		"unknown domain":        pol.RevokeClaim("no-such-domain", floor, 0),
		"revoke-kind unknown":   pol.RevokeKind("no-such-domain", policy.KindMeasurement, 0),
		"floor in a bare store": policy.NewStore().BumpFloor(b.Signer(), currentTCB.Encode(), 0),
	} {
		if !errors.Is(err, policy.ErrNotFound) {
			t.Errorf("%s: %v, want ErrNotFound", name, err)
		}
	}
	// The known floor claim revokes cleanly — the call BumpFloor makes
	// first.
	if err := pol.RevokeClaim("*", floor, 0); err != nil {
		t.Fatalf("revoking the floor claim: %v", err)
	}
}

// TestStatsReadTheStore: the broker's trust counts are reads of the
// store, so a revocation filed straight into it is counted like one
// filed through the broker.
func TestStatsReadTheStore(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{Seed: 3})
	if err := b.File(kbs.RefClaim(pl.digest, "img")); err != nil {
		t.Fatal(err)
	}
	if s, _ := b.Stats(); s.RefValues != 1 {
		t.Fatalf("RefValues = %d after one reference value, want 1", s.RefValues)
	}
	if err := b.Policy().RevokeKind("*", policy.KindMeasurement, 5_000); err != nil {
		t.Fatal(err)
	}
	if s, _ := b.Stats(); s.RefValues != 0 {
		t.Fatalf("RefValues = %d after revoking every measurement claim, want 0", s.RefValues)
	}
	if err := b.Policy().File(b.Signer(), kbs.RevocationClaim("chip-0", 0)); err != nil {
		t.Fatal(err)
	}
	if s, _ := b.Stats(); s.Revoked != 1 {
		t.Fatalf("Revoked = %d after a revocation filed into the store, want 1", s.Revoked)
	}
}

// TestFloorBumpBoundary mirrors the nonce/claim boundary tests for
// minimum-TCB floor bumps: an exchange from a platform below the new
// floor at exactly the bump instant still admits (the old floor claim is
// revoked inclusively), one instant later is denied stale-tcb, and a
// platform at the new floor admits throughout.
func TestFloorBumpBoundary(t *testing.T) {
	auth := kbs.NewAuthority(7)
	older, _ := currentTCB.Predecessor()
	stale := launch(t, auth, "chip-old", older, sev.SNP, sev.DefaultPolicy())
	fresh := launch(t, auth, "chip-new", currentTCB, sev.SNP, sev.DefaultPolicy())

	b := newBroker(auth, kbs.Config{MinTCB: older, MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	for _, pl := range []*platform{stale, fresh} {
		if err := b.File(kbs.RefClaim(pl.digest, "img")); err != nil {
			t.Fatal(err)
		}
	}

	const bumpAt = sim.Time(2_000_000_000)
	// Pre-bump grant also warms the verdict cache, so the post-bump
	// denial below proves the store-version bump invalidated it.
	if _, _, err := exchange(t, b, stale, "acme", bumpAt-1, nil); err != nil {
		t.Fatalf("pre-bump exchange: %v", err)
	}
	if err := b.Policy().BumpFloor(b.Signer(), currentTCB.Encode(), bumpAt); err != nil {
		t.Fatal(err)
	}

	// Boundary instant: the old floor claim is still valid at exactly
	// bumpAt, so the below-floor platform admits.
	if _, _, err := exchange(t, b, stale, "acme", bumpAt, nil); err != nil {
		t.Fatalf("exchange at the bump instant: %v", err)
	}
	// One instant later the denial is stale-tcb — the replacement floor
	// claim's refusal, not the revoked claim's expiry.
	if _, _, err := exchange(t, b, stale, "acme", bumpAt+1, nil); keyOf(err) != "stale-tcb" {
		t.Fatalf("exchange past the bump: %v, want a stale-tcb denial", err)
	}
	// A platform at the new floor admits after the bump.
	if _, _, err := exchange(t, b, fresh, "acme", bumpAt+1, nil); err != nil {
		t.Fatalf("current platform after bump: %v", err)
	}

	// A second bump keeps the same semantics: the replacement IDs descend
	// so the newest floor still decides the denial reason.
	next := currentTCB
	next.Microcode++
	const bump2 = bumpAt + 3_000_000_000
	if err := b.Policy().BumpFloor(b.Signer(), next.Encode(), bump2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := exchange(t, b, fresh, "acme", bump2, nil); err != nil {
		t.Fatalf("exchange at second bump instant: %v", err)
	}
	if _, _, err := exchange(t, b, fresh, "acme", bump2+1, nil); keyOf(err) != "stale-tcb" {
		t.Fatalf("exchange past second bump: %v, want a stale-tcb denial", err)
	}
}

// TestGenerationRevocationBoundary pins a revocation claim's boundary: an exchange
// at exactly the revocation instant admits, one instant later is denied
// revoked — the same inclusive convention as nonce TTLs and claim
// expiry.
func TestGenerationRevocationBoundary(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	if err := b.File(kbs.RefClaim(pl.digest, "img")); err != nil {
		t.Fatal(err)
	}

	const at = sim.Time(2_000_000_000)
	// Warm the verdict cache pre-revocation: the post-revocation denial
	// must not be masked by it.
	if _, _, err := exchange(t, b, pl, "acme", at-1, nil); err != nil {
		t.Fatalf("pre-revocation exchange: %v", err)
	}
	if err := b.Policy().File(b.Signer(), kbs.RevocationClaim("chip-0", at)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := exchange(t, b, pl, "acme", at, nil); err != nil {
		t.Fatalf("exchange at the revocation instant: %v", err)
	}
	if _, _, err := exchange(t, b, pl, "acme", at+1, nil); keyOf(err) != "revoked" {
		t.Fatalf("exchange past the revocation: %v, want ErrRevoked", err)
	}

	// A revocation at instant zero is in force from time zero.
	b2 := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	if err := b2.File(kbs.RefClaim(pl.digest, "img")); err != nil {
		t.Fatal(err)
	}
	if err := b2.File(kbs.RevocationClaim("chip-0", 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := exchange(t, b2, pl, "acme", 0, nil); keyOf(err) != "revoked" {
		t.Fatalf("revocation at zero not in force at time zero: %v", err)
	}
}

// TestVerdictCacheEndsWhereARevocationBites: a revocation filed by a
// signer whose delegation opens later changes no store version when it
// comes into force, so the verdict cached before then must expire by
// itself the instant before it bites.
func TestVerdictCacheEndsWhereARevocationBites(t *testing.T) {
	const opens = sim.Time(100_000_000)
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	if err := b.File(kbs.RefClaim(pl.digest, "img")); err != nil {
		t.Fatal(err)
	}
	pol := b.Policy()
	ops := policy.NewSigner("ops", 11)
	if err := pol.AddSigner(ops); err != nil {
		t.Fatal(err)
	}
	if err := pol.File(b.Signer(), policy.Claim{ID: "del-ops", Kind: policy.KindDelegation, Scope: "*", Subject: "ops", NotBefore: opens}); err != nil {
		t.Fatal(err)
	}
	if err := pol.File(ops, kbs.RevocationClaim("chip-0", 0)); err != nil {
		t.Fatal(err)
	}

	if res, _, err := exchange(t, b, pl, "acme", opens/2, nil); err != nil || res.VerdictCached {
		t.Fatalf("exchange before the delegation opens: %+v, %v", res, err)
	}
	if res, _, err := exchange(t, b, pl, "acme", opens-1, nil); err != nil || !res.VerdictCached {
		t.Fatalf("exchange the instant before the revocation bites: %+v, %v, want a cached grant", res, err)
	}
	for _, at := range []sim.Time{opens, 3 * opens / 2} {
		if _, _, err := exchange(t, b, pl, "acme", at, nil); keyOf(err) != "revoked" {
			t.Fatalf("exchange at %v: %v, want revoked", at, err)
		}
	}
}
