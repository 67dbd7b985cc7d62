package chaos

import (
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/policy"
)

// ---------------------------------------------------------------------------
// tcbstorm family: platform-generation revocation storms and minimum-TCB
// floor bumps landing under live boots, plus the forged "recovery" claims
// an adversary would file to undo them. The storms here are the honest
// operator actions; the tamper is the attempt to neutralize them through
// the store's hostile-write path. The engine's in-force-revocation
// precedence and per-claim signature verification are the defenses under
// test: a storm that bites must keep biting, and a storm that touches
// nothing the run depends on must change nothing at all.

// stormBumpedFloor is the floor the storm mutations raise above the
// enrolled platform's TCB, mirroring the cluster storm scenario's
// SNP+1/microcode+5 step.
func stormBumpedFloor() kbs.TCB {
	f := chaosTCB
	f.SNP++
	f.Microcode += 5
	return f
}

// revokeChip and bumpFloor are the operator's two storm writes at the
// current instant: store calls signed under the broker's anchor. Their
// errors are ignored; a row whose write does not land shows up as a
// missed detection.
func revokeChip(h *Harness, chip string) {
	_ = h.Broker.Policy().File(h.Broker.Signer(), kbs.RevocationClaim(chip, h.Eng.Now()))
}

func bumpFloor(h *Harness, floor kbs.TCB) {
	_ = h.Broker.Policy().BumpFloor(h.Broker.Signer(), floor.Encode(), h.Eng.Now())
}

// stormSite is the row shape the family shares: a storm at a drawn
// instant, refused boots expected at the fleet's admission gate (a policy
// denial) or at the broker's exchange (a kbs denial) depending on where
// each boot is when the storm lands — and, when escaped is set, a run
// with zero failures is an ESCAPE no matter what was served, because the
// storm was supposed to bite.
func stormSite(name, params, escaped string, at time.Duration, storm func(h *Harness)) site {
	s := site{
		family:   "tcbstorm",
		name:     name,
		params:   params,
		expected: []error{policy.ErrDenied, kbs.ErrDenied},
		arm: func(h *Harness) {
			h.Eng.After(at, func() { storm(h) })
		},
	}
	if escaped != "" {
		s.verdict = func(res, clean *RunResult) (Outcome, string, bool) {
			if len(res.failures()) == 0 {
				return Escape, escaped, true
			}
			return "", "", false // the default expected-class check applies
		}
	}
	return s
}

// stormForgedUnrevoke revokes the enrolled chip at a drawn instant and
// immediately injects an unsigned platform claim naming the chip — the
// forged "un-revocation" an adversary on the store's write path would
// file to restore trust. Two independent defenses must hold: in-force
// revocation claims out-rank every platform claim, and the forgery
// fails per-claim signature verification anyway (its ID is chosen to
// sort first, so the engine does consult it). Every exchange strictly
// after the storm must be refused; a run with zero failures means the
// forgery worked and is an ESCAPE no matter what was served.
func stormForgedUnrevoke(at time.Duration) site {
	return stormSite("forged-unrevoke", fmt.Sprintf("at=%s", at),
		"chip revoked mid-run yet every boot served — the forged un-revocation restored trust",
		at, func(h *Harness) {
			revokeChip(h, "chip-chaos")
			_ = h.Broker.Policy().Inject(policy.Claim{
				ID:      "aaa-unrevoke-chip-chaos", // sorts ahead of every honest claim
				Kind:    policy.KindPlatform,
				Scope:   "*",
				Subject: "chip-chaos",
				Issuer:  kbs.PolicyAnchorID, // impersonates the anchor, carries no signature
				Note:    "forged un-revocation",
			})
		})
}

// stormStaleFloorReplay bumps the minimum-TCB floor above the enrolled
// platform at a drawn instant. Every exchange strictly after the bump
// replays evidence at the old, now-stale TCB and must be refused —
// including verdicts the broker had already cached, which die with the
// store version. Zero failures means stale evidence kept redeeming past
// the bump: an ESCAPE.
func stormStaleFloorReplay(at time.Duration) site {
	return stormSite("stale-floor-replay", fmt.Sprintf("at=%s floor=%s", at, stormBumpedFloor()),
		"floor bumped above the platform mid-run yet every boot served — stale evidence kept redeeming",
		at, func(h *Harness) {
			bumpFloor(h, stormBumpedFloor())
		})
}

// stormForgedFloorRestore bumps the floor and injects an unsigned
// replacement platform claim restoring the old, lower floor, its ID
// chosen to sort ahead of the honest bump claim so the engine consults
// the forgery first. Signature verification must refuse it and the
// below-floor denial must keep biting.
func stormForgedFloorRestore(at time.Duration) site {
	return stormSite("forged-floor-restore", fmt.Sprintf("at=%s", at),
		"floor bumped mid-run yet every boot served — the forged floor restore was honored",
		at, func(h *Harness) {
			bumpFloor(h, stormBumpedFloor())
			_ = h.Broker.Policy().Inject(policy.Claim{
				ID:      "aaa-floor-restore", // sorts ahead of the honest floor-bump claim
				Kind:    policy.KindPlatform,
				Scope:   "*",
				Subject: "*",
				MinTCB:  chaosTCB.Encode(),
				Issuer:  kbs.PolicyAnchorID,
				Note:    "forged floor restore",
			})
		})
}

// stormPristineRecovery is the Harmless control: a full recovery cycle
// that touches nothing the run depends on. A ghost chip that never
// attests is revoked, and the floor is re-filed at its current value —
// the store version moves twice, so every cached verdict and admission
// certificate is re-derived from scratch, yet every boot must still
// serve and the run must stay byte-identical to the clean run: any
// failure is an unexpected detection.
func stormPristineRecovery(at time.Duration) site {
	s := stormSite("pristine-recovery", fmt.Sprintf("at=%s", at), "", at, func(h *Harness) {
		revokeChip(h, "chip-ghost")
		bumpFloor(h, chaosTCB)
	})
	s.expected = nil
	return s
}
