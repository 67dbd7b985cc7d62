package policy

import (
	"errors"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/sim"
)

// testPKI is a small fixture: a store with an anchored root signer and
// helpers that mint signed claims under the signer a claim names as its
// issuer.
type testPKI struct {
	t       *testing.T
	store   *Store
	signers map[string]*Signer
}

func newPKI(t *testing.T) *testPKI {
	t.Helper()
	p := &testPKI{t: t, store: NewStore(), signers: make(map[string]*Signer)}
	p.addSigner("root", 1)
	p.store.EnsureDomain("*", "root")
	return p
}

func (p *testPKI) addSigner(id string, seed int64) {
	p.t.Helper()
	sg := NewSigner(id, seed)
	if err := p.store.AddSigner(sg); err != nil {
		p.t.Fatalf("AddSigner(%s): %v", id, err)
	}
	p.signers[id] = sg
}

func (p *testPKI) signer(c Claim) *Signer {
	p.t.Helper()
	sg := p.signers[c.Issuer]
	if sg == nil {
		p.t.Fatalf("no key for issuer %q", c.Issuer)
	}
	return sg
}

func (p *testPKI) signed(c Claim) Claim {
	p.t.Helper()
	c, err := p.signer(c).sign(c)
	if err != nil {
		p.t.Fatalf("sign(%s): %v", c.ID, err)
	}
	return c
}

func (p *testPKI) add(c Claim) {
	p.t.Helper()
	if err := p.store.File(p.signer(c), c); err != nil {
		p.t.Fatalf("File(%s): %v", c.ID, err)
	}
}

func ms(n int64) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

const testTCB = uint64(2)<<56 | uint64(1)<<48 | uint64(8)<<8 | 115

func wantReason(t *testing.T, err error, rule string, reason Reason) {
	t.Helper()
	if err == nil {
		t.Fatalf("want denial %s/%s, got grant", rule, reason)
	}
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("denial does not match ErrDenied: %v", err)
	}
	d := DenialOf(err)
	if d == nil {
		t.Fatalf("no *Denial in chain: %v", err)
	}
	if d.Rule != rule || d.Reason != reason {
		t.Fatalf("denial = %s/%s, want %s/%s (%v)", d.Rule, d.Reason, rule, reason, err)
	}
	if d.Cert == nil || d.Cert.Decision != "deny" {
		t.Fatalf("denial carries no deny certificate: %+v", d.Cert)
	}
}

func TestEvaluateGrantAndTrace(t *testing.T) {
	p := newPKI(t)
	p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", MinTCB: testTCB, Issuer: "root"})
	p.add(Claim{ID: "meas", Kind: KindMeasurement, Scope: "*", Subject: "00ff", Issuer: "root"})

	ev := Evidence{Tenant: "t0", ChipID: "chip-0", TCB: testTCB, HasPlatform: true, Measurement: []byte{0x00, 0xff}}
	cert, err := p.store.Engine().Evaluate(ev, ms(1))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if cert.Decision != "allow" || len(cert.Rules) != 3 {
		t.Fatalf("cert = %+v", cert)
	}
	for i, want := range []string{RuleDomain, RulePlatform, RuleMeasurement} {
		if cert.Rules[i].Rule != want || cert.Rules[i].Outcome != "pass" {
			t.Fatalf("rule %d = %+v, want pass %s", i, cert.Rules[i], want)
		}
	}
	if got := cert.Rules[1].Chain; len(got) != 1 || got[0] != "root" {
		t.Fatalf("platform chain = %v, want [root]", got)
	}
	if cert.Expires != 0 {
		t.Fatalf("unlimited claims must yield no expiry, got %v", cert.Expires)
	}
	if !p.store.Engine().Valid(cert, ms(1000)) {
		t.Fatal("certificate should stay valid while the store is unchanged")
	}
}

func TestEvaluateDenials(t *testing.T) {
	p := newPKI(t)
	p.addSigner("stranger", 99)
	p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", MinTCB: testTCB, Issuer: "root"})
	p.add(Claim{ID: "meas-ok", Kind: KindMeasurement, Scope: "*", Subject: "00ff", Issuer: "root"})

	eng := p.store.Engine()
	platform := Evidence{Tenant: "t0", ChipID: "chip-0", TCB: testTCB, HasPlatform: true}

	t.Run("unknown-domain", func(t *testing.T) {
		s2 := NewStore()
		_, err := s2.Engine().Evaluate(platform, ms(1))
		wantReason(t, err, RuleDomain, ReasonUnknownDomain)
	})
	t.Run("tcb-below-floor", func(t *testing.T) {
		ev := platform
		ev.TCB = testTCB - 1 // microcode one below the floor
		_, err := eng.Evaluate(ev, ms(1))
		wantReason(t, err, RulePlatform, ReasonTCBFloor)
	})
	t.Run("measurement-untrusted", func(t *testing.T) {
		ev := platform
		ev.Measurement = []byte{0xaa, 0xbb}
		_, err := eng.Evaluate(ev, ms(1))
		wantReason(t, err, RuleMeasurement, ReasonMeasurementUnknown)
	})
	t.Run("claim-forged", func(t *testing.T) {
		c := p.signed(Claim{ID: "meas-bad", Kind: KindMeasurement, Scope: "*", Subject: "0a0b", Issuer: "root"})
		c.SigR.Add(c.SigR, c.SigS) // tamper after signing
		if err := p.store.Inject(c); err != nil {
			t.Fatal(err)
		}
		ev := platform
		ev.Measurement = []byte{0x0a, 0x0b}
		_, err := eng.Evaluate(ev, ms(1))
		wantReason(t, err, RuleMeasurement, ReasonForged)
	})
	t.Run("out-of-scope", func(t *testing.T) {
		// A claim scoped to another tenant, mis-filed (checks skipped)
		// where t0's evaluation will see it.
		c := p.signed(Claim{ID: "meas-t9", Kind: KindMeasurement, Scope: "t9", Subject: "0c0d", Issuer: "root"})
		if err := p.store.inject("*", c, false); err != nil {
			t.Fatal(err)
		}
		ev := platform
		ev.Measurement = []byte{0x0c, 0x0d}
		_, err := eng.Evaluate(ev, ms(1))
		wantReason(t, err, RuleMeasurement, ReasonScope)
	})
	t.Run("issuer-unauthorized", func(t *testing.T) {
		// Validly signed by a registered signer that is not anchored in
		// the domain and holds no delegation.
		c := p.signed(Claim{ID: "meas-stranger", Kind: KindMeasurement, Scope: "*", Subject: "0e0f", Issuer: "stranger"})
		if err := p.store.Inject(c); err != nil {
			t.Fatal(err)
		}
		ev := platform
		ev.Measurement = []byte{0x0e, 0x0f}
		_, err := eng.Evaluate(ev, ms(1))
		wantReason(t, err, RuleMeasurement, ReasonUnauthorized)
	})
	t.Run("platform-revoked", func(t *testing.T) {
		p.add(Claim{ID: "rev-chip-9", Kind: KindRevocation, Scope: "*", Subject: "chip-9", Issuer: "root"})
		ev := platform
		ev.ChipID = "chip-9"
		_, err := eng.Evaluate(ev, ms(1))
		wantReason(t, err, RulePlatform, ReasonRevoked)
	})
}

// TestExpiryBoundaryInstant pins the inclusive-expiry convention: a
// claim is still good at exactly NotAfter and refused one nanosecond
// later — the same boundary the broker applies to challenge nonces.
func TestExpiryBoundaryInstant(t *testing.T) {
	p := newPKI(t)
	p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", NotAfter: ms(50), Issuer: "root"})
	eng := p.store.Engine()
	ev := Evidence{Tenant: "t0", ChipID: "chip-0", TCB: testTCB, HasPlatform: true}

	cert, err := eng.Evaluate(ev, ms(50))
	if err != nil {
		t.Fatalf("at the boundary instant the claim must still hold: %v", err)
	}
	if cert.Expires != ms(50) {
		t.Fatalf("cert expiry = %v, want %v", cert.Expires, ms(50))
	}
	if !eng.Valid(cert, ms(50)) {
		t.Fatal("certificate must be valid at its own expiry instant")
	}
	if eng.Valid(cert, ms(50)+1) {
		t.Fatal("certificate must be invalid strictly after expiry")
	}
	_, err = eng.Evaluate(ev, ms(50)+1)
	wantReason(t, err, RulePlatform, ReasonExpired)
}

// TestRevocationAtInstant pins the revocation-storm semantics: admission
// flips from allow to deny for every instant strictly after the
// revocation instant, and outstanding certificates die with the store
// version bump.
func TestRevocationAtInstant(t *testing.T) {
	p := newPKI(t)
	p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", Issuer: "root"})
	eng := p.store.Engine()
	ev := Evidence{Tenant: "t0", ChipID: "chip-0", TCB: testTCB, HasPlatform: true}

	before, err := eng.Evaluate(ev, ms(10))
	if err != nil {
		t.Fatalf("pre-revocation: %v", err)
	}
	if err := p.store.RevokeClaim("*", "plat", ms(20)); err != nil {
		t.Fatal(err)
	}
	// The store mutated: the outstanding certificate is stale even for
	// instants before the revocation.
	if eng.Valid(before, ms(15)) {
		t.Fatal("certificate minted before a store mutation must go stale")
	}
	if _, err := eng.Evaluate(ev, ms(20)); err != nil {
		t.Fatalf("at the revocation instant the claim must still hold: %v", err)
	}
	_, err = eng.Evaluate(ev, ms(20)+1)
	wantReason(t, err, RulePlatform, ReasonExpired)

	st := p.store.Stats()
	if st.Revoked != 1 || st.DenialsByRule[RulePlatform+"/"+string(ReasonExpired)] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDelegationChain(t *testing.T) {
	p := newPKI(t)
	p.addSigner("ops", 2)
	p.addSigner("release-bot", 3)
	// root delegates to ops, ops delegates to release-bot; the bot's
	// delegation expires.
	p.add(Claim{ID: "del-ops", Kind: KindDelegation, Scope: "*", Subject: "ops", Issuer: "root"})
	p.add(Claim{ID: "del-bot", Kind: KindDelegation, Scope: "*", Subject: "release-bot", NotAfter: ms(100), Issuer: "ops"})
	p.add(Claim{ID: "meas", Kind: KindMeasurement, Scope: "*", Subject: "00ff", Issuer: "release-bot"})

	eng := p.store.Engine()
	ev := Evidence{Tenant: "t0", Measurement: []byte{0x00, 0xff}}
	cert, err := eng.Evaluate(ev, ms(1))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	var mr *RuleResult
	for i := range cert.Rules {
		if cert.Rules[i].Rule == RuleMeasurement {
			mr = &cert.Rules[i]
		}
	}
	want := []string{"root", "ops", "release-bot"}
	if mr == nil || len(mr.Chain) != 3 || mr.Chain[0] != want[0] || mr.Chain[1] != want[1] || mr.Chain[2] != want[2] {
		t.Fatalf("delegation chain = %+v, want %v", mr, want)
	}
	// The delegation's expiry propagates into the certificate.
	if cert.Expires != ms(100) {
		t.Fatalf("cert expiry = %v, want the delegation's %v", cert.Expires, ms(100))
	}
	// Past the delegation window the issuer loses authority.
	_, err = eng.Evaluate(ev, ms(100)+1)
	wantReason(t, err, RuleMeasurement, ReasonUnauthorized)
}

func TestAnchorRotation(t *testing.T) {
	p := newPKI(t)
	p.addSigner("root2", 4)
	p.add(Claim{ID: "meas-old", Kind: KindMeasurement, Scope: "*", Subject: "00ff", Issuer: "root"})
	if err := p.store.rotateAnchor("*", "root", "root2", ms(30)); err != nil {
		t.Fatal(err)
	}
	p.add(Claim{ID: "meas-new", Kind: KindMeasurement, Scope: "*", Subject: "11ee", Issuer: "root2"})
	eng := p.store.Engine()
	oldEv := Evidence{Tenant: "t0", Measurement: []byte{0x00, 0xff}}
	newEv := Evidence{Tenant: "t0", Measurement: []byte{0x11, 0xee}}

	// At the rotation instant both anchors are live.
	if _, err := eng.Evaluate(oldEv, ms(30)); err != nil {
		t.Fatalf("old anchor at rotation instant: %v", err)
	}
	if _, err := eng.Evaluate(newEv, ms(30)); err != nil {
		t.Fatalf("new anchor at rotation instant: %v", err)
	}
	// Strictly after, the old root's claims lose their authority —
	// rotating out a compromised anchor revokes everything it signed.
	_, err := eng.Evaluate(oldEv, ms(30)+1)
	wantReason(t, err, RuleMeasurement, ReasonUnauthorized)
	if _, err := eng.Evaluate(newEv, ms(31)); err != nil {
		t.Fatalf("new anchor after rotation: %v", err)
	}
	// Before the rotation the new anchor had no authority yet.
	_, err = eng.Evaluate(newEv, ms(29))
	wantReason(t, err, RuleMeasurement, ReasonUnauthorized)
}

func TestTenantDomainIsolation(t *testing.T) {
	p := newPKI(t)
	p.store.EnsureDomain("t0", "root")
	p.store.EnsureDomain("t1", "root")
	p.add(Claim{ID: "meas-t0", Kind: KindMeasurement, Scope: "t0", Subject: "00ff", Issuer: "root"})
	p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", Issuer: "root"})

	eng := p.store.Engine()
	ev := Evidence{Tenant: "t0", Measurement: []byte{0x00, 0xff}}
	if _, err := eng.Evaluate(ev, ms(1)); err != nil {
		t.Fatalf("t0 must see its own domain's claim: %v", err)
	}
	ev.Tenant = "t1"
	_, err := eng.Evaluate(ev, ms(1))
	wantReason(t, err, RuleMeasurement, ReasonMeasurementUnknown)
}

func TestPermissiveAllowsEverything(t *testing.T) {
	eng := Permissive()
	for _, ev := range []Evidence{
		{Tenant: "anyone"},
		{Tenant: "t0", ChipID: "chip-42", TCB: 0, HasPlatform: true},
		{Tenant: "t1", ChipID: "x", TCB: testTCB, HasPlatform: true, Measurement: []byte{1, 2, 3}},
	} {
		cert, err := eng.Evaluate(ev, ms(5))
		if err != nil {
			t.Fatalf("Permissive denied %+v: %v", ev, err)
		}
		if cert.Expires != 0 {
			t.Fatalf("Permissive certificates must never expire, got %v", cert.Expires)
		}
		if !eng.Valid(cert, ms(1_000_000)) {
			t.Fatal("Permissive certificate must stay valid forever")
		}
	}
}

func TestStoreVersionAndDuplicates(t *testing.T) {
	p := newPKI(t)
	v0 := p.store.Version()
	root := p.signers["root"]
	plat := Claim{ID: "a", Kind: KindPlatform, Scope: "*", Subject: "*"}
	if err := p.store.File(root, plat); err != nil {
		t.Fatal(err)
	}
	v1 := p.store.Version()
	if v1 == v0 {
		t.Fatal("File must bump the version")
	}
	if err := p.store.File(root, plat); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate claim: %v", err)
	}
	if err := p.store.File(NewSigner("nobody", 5), Claim{ID: "b"}); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("unknown signer: %v", err)
	}
	// A signer whose key is not the one registered under its ID.
	plat.ID = "c"
	if err := p.store.File(NewSigner("root", 2), plat); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("bad signature: %v", err)
	}
	if p.store.Version() != v1 {
		t.Fatal("a refused filing must leave the version alone")
	}
}

// TestUnknownTargetIsNotFound pins the store's one unknown-target rule:
// every mutation naming a domain, claim, anchor or floor the store does
// not hold is a typed ErrNotFound and leaves the version alone.
func TestUnknownTargetIsNotFound(t *testing.T) {
	p := newPKI(t)
	p.add(Claim{ID: "meas", Kind: KindMeasurement, Scope: "*", Subject: "00ff", Issuer: "root"})
	root := p.signers["root"]
	for name, mutate := range map[string]func() error{
		"revoke claim unknown domain": func() error { return p.store.RevokeClaim("nope", "meas", ms(1)) },
		"revoke claim unknown claim":  func() error { return p.store.RevokeClaim("*", "nope", ms(1)) },
		"revoke kind unknown domain":  func() error { return p.store.RevokeKind("nope", KindMeasurement, ms(1)) },
		"rotate unknown anchor":       func() error { return p.store.rotateAnchor("*", "ghost", "root", ms(1)) },
		"bump floor never filed":      func() error { return p.store.BumpFloor(root, testTCB, ms(1)) },
	} {
		t.Run(name, func(t *testing.T) {
			v := p.store.Version()
			if err := mutate(); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
			if p.store.Version() != v {
				t.Fatal("a refused mutation must leave the version alone")
			}
		})
	}
	// A known domain holding no claim of the kind is not an unknown target.
	if err := p.store.RevokeKind("*", KindDelegation, ms(1)); err != nil {
		t.Fatalf("revoke-kind with nothing to revoke: %v", err)
	}
}

// TestBumpFloorReadsTheStore pins the floor sequence: each bump revokes
// the newest floor claim at the instant and files its successor under the
// next descending ID, so the newest floor decides a below-floor denial.
func TestBumpFloorReadsTheStore(t *testing.T) {
	p := newPKI(t)
	p.add(Claim{ID: FloorClaimID, Kind: KindPlatform, Scope: "*", Subject: "*", MinTCB: testTCB - 1, Issuer: "root"})
	root := p.signers["root"]
	eng := p.store.Engine()
	old := Evidence{Tenant: "t0", ChipID: "chip-0", TCB: testTCB - 1, HasPlatform: true}
	for i, id := range []string{"floor-bump-998", "floor-bump-997"} {
		at := ms(int64(10 * (i + 1)))
		v := p.store.Version()
		if err := p.store.BumpFloor(root, testTCB+uint64(i), at); err != nil {
			t.Fatal(err)
		}
		if got := p.store.Version(); got != v+2 {
			t.Fatalf("bump %d moved the version by %d, want 2 (revoke + file)", i, got-v)
		}
		_, err := eng.Evaluate(old, at+1)
		wantReason(t, err, RulePlatform, ReasonTCBFloor)
		if rules := DenialOf(err).Cert.Rules; rules[len(rules)-1].ClaimID != id {
			t.Fatalf("bump %d: the denial names %q, want %q", i, rules[len(rules)-1].ClaimID, id)
		}
	}
	if _, err := eng.Evaluate(old, ms(10)); err != nil {
		t.Fatalf("at the first bump instant the old floor still admits: %v", err)
	}
}

// TestConcurrentBumpsEachAdvanceTheFloor: bumps racing on one store are
// serialized, so none reads a floor another has already replaced and every
// one files its own successor.
func TestConcurrentBumpsEachAdvanceTheFloor(t *testing.T) {
	p := newPKI(t)
	p.add(Claim{ID: FloorClaimID, Kind: KindPlatform, Scope: "*", Subject: "*", MinTCB: testTCB, Issuer: "root"})
	root := p.signers["root"]
	const bumps = 8
	errs := make(chan error, bumps)
	for i := 0; i < bumps; i++ {
		go func() { errs <- p.store.BumpFloor(root, testTCB, ms(1)) }()
	}
	for i := 0; i < bumps; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent bump: %v", err)
		}
	}
	if filed, revoked := p.store.CountKind(KindPlatform); filed != bumps+1 || revoked != bumps {
		t.Fatalf("platform claims filed %d, revoked %d; want %d and %d", filed, revoked, bumps+1, bumps)
	}
}

// TestRevokeKindMutationNamesADeclaredDomain: a revoke-kind mutation
// naming a domain the file never declares is a lint finding, and applying
// it is ErrNotFound instead of a silent no-op.
func TestRevokeKindMutationNamesADeclaredDomain(t *testing.T) {
	f := &File{
		Signers: []FileSigner{{ID: "root", Seed: 1}},
		Domains: []FileDomain{{Name: "*", Anchors: []string{"root"}}},
		Mutations: []FileMutation{
			{AtMS: 1, Op: "revoke-kind", Domain: "*", Kind: string(KindMeasurement)},
			{AtMS: 1, Op: "revoke-kind", Domain: "tenant-typo", Kind: string(KindMeasurement)},
		},
	}
	want := `mutations[1]: revoke-kind names undeclared domain "tenant-typo"`
	if got := f.Lint(); len(got) != 1 || got[0] != want {
		t.Fatalf("lint = %q, want [%q]", got, want)
	}
	s, err := f.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Mutations[0].Apply(s); err != nil {
		t.Fatalf("revoke-kind on a declared domain: %v", err)
	}
	if err := f.Mutations[1].Apply(s); !errors.Is(err, ErrNotFound) {
		t.Fatalf("revoke-kind on an undeclared domain: %v, want ErrNotFound", err)
	}
}

// TestRevocationBehindFutureAuthority pins the certificate's life to the
// first instant a revocation that does not bite yet could: a revocation
// already inside its own window whose issuer only gains authority later,
// through a delegation or an anchor rotation that opens in the future,
// caps the expiry one instant before that. Without the cap a certificate
// minted before it would stay Valid after the revocation came into force,
// since nothing mutates the store at that instant.
func TestRevocationBehindFutureAuthority(t *testing.T) {
	const opens = 100
	ev := Evidence{Tenant: "t0", ChipID: "chip-x", TCB: testTCB, HasPlatform: true}
	for name, setup := range map[string]func(p *testPKI) string{
		"delegation": func(p *testPKI) string {
			p.addSigner("ops", 2)
			p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", Issuer: "root"})
			p.add(Claim{ID: "del-ops", Kind: KindDelegation, Scope: "*", Subject: "ops", NotBefore: ms(opens), Issuer: "root"})
			return "ops"
		},
		"rotation": func(p *testPKI) string {
			// The platform claim's issuer stays anchored throughout, so the
			// rotation bounds the certificate only through the revocation.
			p.addSigner("ops", 2)
			p.addSigner("root2", 4)
			p.store.EnsureDomain("*", "ops")
			p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", Issuer: "ops"})
			if err := p.store.rotateAnchor("*", "root", "root2", ms(opens)); err != nil {
				t.Fatal(err)
			}
			return "root2"
		},
	} {
		t.Run(name, func(t *testing.T) {
			p := newPKI(t)
			revoker := setup(p)
			p.add(Claim{ID: "revoke-chip-x", Kind: KindRevocation, Scope: "*", Subject: "chip-x", Issuer: revoker})
			eng := p.store.Engine()

			cert, err := eng.Evaluate(ev, ms(50))
			if err != nil {
				t.Fatalf("before the revoker's authority opens: %v", err)
			}
			if cert.Expires != ms(opens)-1 {
				t.Fatalf("cert expiry = %v, want %v", cert.Expires, ms(opens)-1)
			}
			if !eng.Valid(cert, ms(opens)-1) {
				t.Fatal("certificate must be valid the instant before the revocation bites")
			}
			if eng.Valid(cert, ms(opens)) || eng.Valid(cert, ms(150)) {
				t.Fatal("certificate outlives the revocation")
			}
			if _, err := eng.Evaluate(ev, ms(opens)-1); err != nil {
				t.Fatalf("the instant before the revocation bites: %v", err)
			}
			for _, at := range []sim.Time{ms(opens), ms(150)} {
				_, err := eng.Evaluate(ev, at)
				wantReason(t, err, RulePlatform, ReasonRevoked)
			}
		})
	}
}

// TestRevocationWithoutAuthorityLeavesNoExpiry: a revocation whose
// issuer has no path to an anchor at any instant, or only through a
// delegation already closed, can never bite, so it bounds nothing.
func TestRevocationWithoutAuthorityLeavesNoExpiry(t *testing.T) {
	p := newPKI(t)
	p.addSigner("ops", 2)
	p.addSigner("mallory", 3)
	p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", Issuer: "root"})
	p.add(Claim{ID: "del-ops", Kind: KindDelegation, Scope: "*", Subject: "ops", NotAfter: ms(10), Issuer: "root"})
	p.add(Claim{ID: "revoke-by-mallory", Kind: KindRevocation, Scope: "*", Subject: "chip-x", Issuer: "mallory"})
	p.add(Claim{ID: "revoke-by-ops", Kind: KindRevocation, Scope: "*", Subject: "chip-x", Issuer: "ops"})
	cert, err := p.store.Engine().Evaluate(Evidence{Tenant: "t0", ChipID: "chip-x", TCB: testTCB, HasPlatform: true}, ms(50))
	if err != nil {
		t.Fatal(err)
	}
	if cert.Expires != 0 {
		t.Fatalf("cert expiry = %v, want none", cert.Expires)
	}
}

// TestGateAllocations pins what the fleet's admission gate costs: its
// evidence names only the tenant, and a grant allocates the certificate
// and nothing else — the trace lives inside it — plus, when a tenant
// domain and "*" both cover the tenant, the two-domain detail string.
func TestGateAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	ev := Evidence{Tenant: "t0"}
	gate := func(eng *Engine) func() {
		return func() {
			if _, err := eng.Evaluate(ev, ms(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := testing.AllocsPerRun(100, gate(Permissive())); got != 1 {
		t.Errorf("the permissive gate allocates %v times, want 1", got)
	}
	p := newPKI(t)
	p.store.EnsureDomain("t0", "root")
	if got := testing.AllocsPerRun(100, gate(p.store.Engine())); got > 2 {
		t.Errorf("a tenant-and-operator gate allocates %v times, want at most 2", got)
	}
}
