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

// TestRevokeUnknownTargetSemantics pins the contract the storm layer
// leans on: broker revocation of an unknown chip is idempotent success
// (forward-looking distrust, no chip registry), while policy
// RevokeClaim of an unknown claim is a typed ErrNotFound (revoking a
// claim never filed is an operator mistake). Broker and HTTP client
// paths must agree.
func TestRevokeUnknownTargetSemantics(t *testing.T) {
	auth := kbs.NewAuthority(7)
	b := newBroker(auth, kbs.Config{Seed: 3})

	// Broker path: unknown chip succeeds, repeating succeeds.
	if err := b.Revoke("chip-never-enrolled"); err != nil {
		t.Fatalf("revoking unknown chip: %v", err)
	}
	if err := b.Revoke("chip-never-enrolled"); err != nil {
		t.Fatalf("repeating revocation: %v", err)
	}
	if err := b.RevokeAt("chip-also-unknown", 5_000); err != nil {
		t.Fatalf("RevokeAt unknown chip: %v", err)
	}
	s, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Revoked != 2 {
		t.Fatalf("revocation list size = %d, want 2", s.Revoked)
	}

	// HTTP client path agrees: /revoke of an unknown chip is 200, not a
	// denial or server error.
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	c := &kbs.Client{Base: srv.URL}
	if err := c.Revoke("chip-wire-ghost"); err != nil {
		t.Fatalf("remote revoke of unknown chip: %v", err)
	}

	// Policy path: unknown claim and unknown domain are typed sentinels.
	pol := b.Policy()
	if err := pol.RevokeClaim("*", "no-such-claim", 0); !errors.Is(err, policy.ErrNotFound) {
		t.Fatalf("unknown claim: %v, want ErrNotFound", err)
	}
	if err := pol.RevokeClaim("no-such-domain", kbs.MinTCBClaimID, 0); !errors.Is(err, policy.ErrNotFound) {
		t.Fatalf("unknown domain: %v, want ErrNotFound", err)
	}
	// The known floor claim revokes cleanly — the same call BumpFloor
	// makes internally.
	if err := pol.RevokeClaim("*", kbs.MinTCBClaimID, 0); err != nil {
		t.Fatalf("revoking the floor claim: %v", err)
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
		if err := b.Provision(pl.digest, "img"); err != nil {
			t.Fatal(err)
		}
	}

	const bumpAt = sim.Time(2_000_000_000)
	// Pre-bump grant also warms the verdict cache, so the post-bump
	// denial below proves the store-version bump invalidated it.
	if _, _, err := exchange(t, b, stale, "acme", bumpAt-1, nil); err != nil {
		t.Fatalf("pre-bump exchange: %v", err)
	}
	if err := b.BumpFloor(currentTCB, bumpAt); err != nil {
		t.Fatal(err)
	}
	if got := b.MinTCB(); got != currentTCB {
		t.Fatalf("MinTCB after bump = %v, want %v", got, currentTCB)
	}

	// Boundary instant: the old floor claim is still valid at exactly
	// bumpAt, so the below-floor platform admits.
	if _, _, err := exchange(t, b, stale, "acme", bumpAt, nil); err != nil {
		t.Fatalf("exchange at the bump instant: %v", err)
	}
	// One instant later the denial is stale-tcb — the replacement floor
	// claim's refusal, not the revoked claim's expiry.
	if _, _, err := exchange(t, b, stale, "acme", bumpAt+1, nil); kbs.ReasonOf(err) != kbs.ReasonStaleTCB {
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
	if err := b.BumpFloor(next, bump2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := exchange(t, b, fresh, "acme", bump2, nil); err != nil {
		t.Fatalf("exchange at second bump instant: %v", err)
	}
	if _, _, err := exchange(t, b, fresh, "acme", bump2+1, nil); kbs.ReasonOf(err) != kbs.ReasonStaleTCB {
		t.Fatalf("exchange past second bump: %v, want a stale-tcb denial", err)
	}
}

// TestGenerationRevocationBoundary pins RevokeAt's boundary: an exchange
// at exactly the revocation instant admits, one instant later is denied
// revoked — the same inclusive convention as nonce TTLs and claim
// expiry.
func TestGenerationRevocationBoundary(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	if err := b.Provision(pl.digest, "img"); err != nil {
		t.Fatal(err)
	}

	const at = sim.Time(2_000_000_000)
	// Warm the verdict cache pre-revocation: the post-revocation denial
	// must not be masked by it.
	if _, _, err := exchange(t, b, pl, "acme", at-1, nil); err != nil {
		t.Fatalf("pre-revocation exchange: %v", err)
	}
	if err := b.RevokeAt("chip-0", at); err != nil {
		t.Fatal(err)
	}
	if _, _, err := exchange(t, b, pl, "acme", at, nil); err != nil {
		t.Fatalf("exchange at the revocation instant: %v", err)
	}
	if _, _, err := exchange(t, b, pl, "acme", at+1, nil); kbs.ReasonOf(err) != kbs.ReasonRevoked {
		t.Fatalf("exchange past the revocation: %v, want ErrRevoked", err)
	}

	// Revoke (no instant) stays in force from time zero.
	b2 := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	if err := b2.Provision(pl.digest, "img"); err != nil {
		t.Fatal(err)
	}
	if err := b2.Revoke("chip-0"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := exchange(t, b2, pl, "acme", 0, nil); kbs.ReasonOf(err) != kbs.ReasonRevoked {
		t.Fatalf("Revoke not in force at time zero: %v", err)
	}
}
