package kbs_test

import (
	"crypto/ecdh"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// platform is one enrolled host with a finished guest on it.
type platform struct {
	psp    *psp.PSP
	ctx    *psp.GuestContext
	digest [32]byte
	enr    *kbs.Enrollment
}

// launch enrolls a PSP under auth as (chip, tcb) and boots a minimal
// guest, returning the finished launch context and digest.
func launch(t *testing.T, auth *kbs.Authority, chip string, tcb kbs.TCB, level sev.Level, policy sev.Policy) *platform {
	t.Helper()
	p := psp.New(costmodel.Unit(), 1)
	enr := auth.Enroll(p, chip, tcb)
	mem := guestmem.New(1 << 20)
	ctx, err := p.LaunchStart(nil, mem, level, policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.HostWrite(0x1000, []byte("kbs guest image")); err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchUpdateData(nil, 0x1000, 15, sev.PageNormal); err != nil {
		t.Fatal(err)
	}
	digest, err := ctx.LaunchFinish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &platform{psp: p, ctx: ctx, digest: digest, enr: enr}
}

func guestKey(t *testing.T, seed int64) *ecdh.PrivateKey {
	t.Helper()
	priv, err := ecdh.X25519().GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return priv
}

// exchange runs one challenge/redeem round trip against svc, with
// optional tampering hooks between report generation and redemption.
func exchange(t *testing.T, svc kbs.Service, pl *platform, tenant string, now sim.Time,
	tamper func(req *kbs.RedeemRequest)) (*kbs.RedeemResult, *ecdh.PrivateKey, error) {
	t.Helper()
	ch, err := svc.Challenge(tenant, now)
	if err != nil {
		return nil, nil, err
	}
	priv := guestKey(t, 99)
	pub := priv.PublicKey().Bytes()
	report, err := pl.ctx.BuildReport(nil, kbs.BindReportData(ch.Nonce, pub))
	if err != nil {
		t.Fatal(err)
	}
	req := kbs.RedeemRequest{
		Tenant:   tenant,
		Nonce:    ch.Nonce,
		Report:   report.Marshal(),
		Chain:    pl.enr.Chain.Marshal(),
		GuestPub: pub,
	}
	if tamper != nil {
		tamper(&req)
	}
	res, err := svc.Redeem(req, now)
	return res, priv, err
}

var currentTCB = kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 115}

func newBroker(auth *kbs.Authority, cfg kbs.Config) *kbs.Broker {
	b := kbs.NewBroker(auth.Root(), cfg)
	b.AddTenant("acme", []byte("acme disk key"))
	return b
}

func TestTCBEncodeDecode(t *testing.T) {
	// The VCEK certificate layout: bootloader and TEE in the top bytes,
	// SNP and microcode in the bottom two.
	if got := currentTCB.Encode(); got != 0x0201_0000_0000_0873 {
		t.Fatalf("Encode(%v) = %#x", currentTCB, got)
	}
	parsed, err := kbs.ParseTCB(currentTCB.String())
	if err != nil || parsed != currentTCB {
		t.Fatalf("ParseTCB(%q) = %v, %v", currentTCB.String(), parsed, err)
	}
	if _, err := kbs.ParseTCB("1.2.3"); err == nil {
		t.Fatal("short TCB accepted")
	}
	if _, err := kbs.ParseTCB("1.2.3.999"); err == nil {
		t.Fatal("overflowing component accepted")
	}
}

func TestTCBAtLeast(t *testing.T) {
	min := kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 100}
	if !currentTCB.AtLeast(min) {
		t.Fatal("current TCB should satisfy min")
	}
	// One lagging component fails even when others are ahead.
	lagging := kbs.TCB{BootLoader: 9, TEE: 9, SNP: 7, Microcode: 200}
	if lagging.AtLeast(min) {
		t.Fatal("lagging SNP component accepted")
	}
}

func TestTCBPredecessor(t *testing.T) {
	p, err := currentTCB.Predecessor()
	if err != nil {
		t.Fatal(err)
	}
	if !currentTCB.AtLeast(p) || p.AtLeast(currentTCB) {
		t.Fatalf("predecessor %v not strictly older than %v", p, currentTCB)
	}
	// Rollover decrements the next component up.
	p2, err := kbs.TCB{SNP: 1}.Predecessor()
	if err != nil || p2 != (kbs.TCB{}) {
		t.Fatalf("Predecessor({SNP:1}) = %v, %v", p2, err)
	}
	if _, err := (kbs.TCB{}).Predecessor(); !errors.Is(err, kbs.ErrTCBFloor) {
		t.Fatalf("zero TCB predecessor: %v", err)
	}
}

func TestAuthorityDeterministic(t *testing.T) {
	a1 := kbs.NewAuthority(42)
	a2 := kbs.NewAuthority(42)
	// Same seed ⇒ same hierarchy: roots agree, and a chain minted by one
	// authority verifies under the other's pin, regardless of the order
	// chains are requested in. (Signature *bytes* may differ — Go's
	// ecdsa.Sign deliberately hedges even under a seeded reader — but
	// every derived key is identical, which is what interoperability
	// between sevf-fleet and sevf-attestd needs.)
	if !a1.Root().Equal(a2.Root()) {
		t.Fatal("same-seed authorities derived different roots")
	}
	a1.ChainFor("chip-b", currentTCB)
	c1 := a1.ChainFor("chip-a", currentTCB)
	c2 := a2.ChainFor("chip-a", currentTCB)
	if !c1.VCEK.Key().Equal(c2.VCEK.Key()) {
		t.Fatal("same-seed authorities derived different VCEKs")
	}
	if err := c1.Verify(a2.Root()); err != nil {
		t.Fatalf("a1 chain does not verify under a2 root: %v", err)
	}
	if err := c2.Verify(a1.Root()); err != nil {
		t.Fatalf("a2 chain does not verify under a1 root: %v", err)
	}
	older, _ := currentTCB.Predecessor()
	if a1.ChainFor("chip-a", older).VCEK.Key().Equal(c1.VCEK.Key()) {
		t.Fatal("different TCBs derived the same VCEK")
	}
	if kbs.NewAuthority(43).Root().Equal(a1.Root()) {
		t.Fatal("different seeds derived the same root")
	}
}

func TestEnrolledChainVerifies(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	if err := pl.enr.Chain.Verify(auth.Root()); err != nil {
		t.Fatalf("enrolled chain does not verify: %v", err)
	}
	if pl.enr.Chain.VCEK.ChipID != "chip-0" || pl.enr.Chain.VCEK.TCBVersion != currentTCB.Encode() {
		t.Fatal("chain missing chip/TCB identity")
	}
	// The chain survives its own wire format with identity intact.
	rt, err := psp.UnmarshalChain(pl.enr.Chain.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if rt.VCEK.ChipID != "chip-0" || rt.VCEK.TCBVersion != currentTCB.Encode() {
		t.Fatal("chip/TCB identity lost on the wire")
	}
}

func TestGrantReleasesSecret(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	if err := b.File(kbs.RefClaim(pl.digest, "test image")); err != nil {
		t.Fatal(err)
	}
	res, priv, err := exchange(t, b, pl, "acme", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	secret, err := kbs.UnwrapSecret(priv, res.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if string(secret) != "acme disk key" {
		t.Fatalf("unwrapped %q", secret)
	}
	if res.ChainCached || res.VerdictCached {
		t.Fatal("first exchange claimed cache hits")
	}
}

func TestDenialReasons(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())

	setup := func(cfg kbs.Config) *kbs.Broker {
		b := newBroker(auth, cfg)
		if err := b.File(kbs.RefClaim(pl.digest, "img")); err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3}

	t.Run("tenant", func(t *testing.T) {
		b := setup(base)
		if _, err := b.Challenge("nobody", 0); keyOf(err) != kbs.ReasonTenant {
			t.Fatalf("err = %v", err)
		}
		// A nonce issued to one tenant cannot be redeemed by another.
		_, _, err := exchange(t, b, pl, "acme", 0, func(req *kbs.RedeemRequest) {
			b.AddTenant("mallory", []byte("m"))
			req.Tenant = "mallory"
		})
		if keyOf(err) != kbs.ReasonTenant {
			t.Fatalf("cross-tenant redeem: %v", err)
		}
	})

	t.Run("replay", func(t *testing.T) {
		b := setup(base)
		var replayReq kbs.RedeemRequest
		_, _, err := exchange(t, b, pl, "acme", 0, func(req *kbs.RedeemRequest) { replayReq = *req })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Redeem(replayReq, 0); !errors.Is(err, kbs.ErrReplay) {
			t.Fatalf("replayed exchange: %v", err)
		}
		// A never-issued nonce is also a replay-class denial.
		replayReq.Nonce[0] ^= 1
		if _, err := b.Redeem(replayReq, 0); !errors.Is(err, kbs.ErrReplay) {
			t.Fatalf("unissued nonce: %v", err)
		}
	})

	t.Run("expired", func(t *testing.T) {
		b := setup(base)
		ch, err := b.Challenge("acme", 0)
		if err != nil {
			t.Fatal(err)
		}
		priv := guestKey(t, 99)
		pub := priv.PublicKey().Bytes()
		report, err := pl.ctx.BuildReport(nil, kbs.BindReportData(ch.Nonce, pub))
		if err != nil {
			t.Fatal(err)
		}
		req := kbs.RedeemRequest{Tenant: "acme", Nonce: ch.Nonce, Report: report.Marshal(),
			Chain: pl.enr.Chain.Marshal(), GuestPub: pub}
		if _, err := b.Redeem(req, ch.Expires+1); !errors.Is(err, kbs.ErrExpired) {
			t.Fatalf("expired nonce: %v", err)
		}
	})

	t.Run("malformed", func(t *testing.T) {
		b := setup(base)
		_, _, err := exchange(t, b, pl, "acme", 0, func(req *kbs.RedeemRequest) {
			req.Chain = []byte("junk")
		})
		if keyOf(err) != kbs.ReasonMalformed {
			t.Fatalf("junk chain: %v", err)
		}
		_, _, err = exchange(t, b, pl, "acme", 0, func(req *kbs.RedeemRequest) {
			req.Report = req.Report[:10]
		})
		if keyOf(err) != kbs.ReasonMalformed {
			t.Fatalf("truncated report: %v", err)
		}
	})

	t.Run("forged", func(t *testing.T) {
		b := setup(base)
		// Bit-flipped report signature.
		_, _, err := exchange(t, b, pl, "acme", 0, func(req *kbs.RedeemRequest) {
			req.Report[len(req.Report)-1] ^= 0xFF
		})
		if keyOf(err) != kbs.ReasonForged {
			t.Fatalf("flipped signature: %v", err)
		}
		// Self-minted chain from a hierarchy outside the pinned root.
		rogue := kbs.NewAuthority(666)
		_, _, err = exchange(t, b, pl, "acme", 0, func(req *kbs.RedeemRequest) {
			req.Chain = rogue.ChainFor("chip-0", currentTCB).Marshal()
		})
		if keyOf(err) != kbs.ReasonForged {
			t.Fatalf("rogue chain: %v", err)
		}
	})

	t.Run("revoked", func(t *testing.T) {
		b := setup(base)
		if err := b.File(kbs.RevocationClaim("chip-0", 0)); err != nil {
			t.Fatal(err)
		}
		_, _, err := exchange(t, b, pl, "acme", 0, nil)
		if keyOf(err) != "revoked" {
			t.Fatalf("revoked chip: %v", err)
		}
	})

	t.Run("stale-tcb", func(t *testing.T) {
		cfg := base
		cfg.MinTCB = currentTCB
		b := newBroker(auth, cfg)
		older, _ := currentTCB.Predecessor()
		stale := launch(t, auth, "chip-old", older, sev.SNP, sev.DefaultPolicy())
		if err := b.File(kbs.RefClaim(stale.digest, "img")); err != nil {
			t.Fatal(err)
		}
		_, _, err := exchange(t, b, stale, "acme", 0, nil)
		if keyOf(err) != "stale-tcb" {
			t.Fatalf("stale TCB: %v", err)
		}
		// The same broker still grants to a current platform.
		fresh := launch(t, auth, "chip-new", currentTCB, sev.SNP, sev.DefaultPolicy())
		if err := b.File(kbs.RefClaim(fresh.digest, "img")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := exchange(t, b, fresh, "acme", 0, nil); err != nil {
			t.Fatalf("current TCB denied: %v", err)
		}
	})

	t.Run("policy", func(t *testing.T) {
		b := setup(base)
		weak := launch(t, auth, "chip-weak", currentTCB, sev.SNP, sev.Policy{ESRequired: true})
		if err := b.File(kbs.RefClaim(weak.digest, "img")); err != nil {
			t.Fatal(err)
		}
		_, _, err := exchange(t, b, weak, "acme", 0, nil)
		if keyOf(err) != kbs.ReasonPolicy {
			t.Fatalf("weak policy: %v", err)
		}
		low := launch(t, auth, "chip-low", currentTCB, sev.ES,
			sev.Policy{NoDebug: true, NoKeySharing: true, ESRequired: true})
		if err := b.File(kbs.RefClaim(low.digest, "img")); err != nil {
			t.Fatal(err)
		}
		_, _, err = exchange(t, b, low, "acme", 0, nil)
		if keyOf(err) != kbs.ReasonPolicy {
			t.Fatalf("low level: %v", err)
		}
	})

	t.Run("measurement", func(t *testing.T) {
		b := newBroker(auth, base) // nothing provisioned
		_, _, err := exchange(t, b, pl, "acme", 0, nil)
		if !errors.Is(err, kbs.ErrMeasurement) {
			t.Fatalf("unprovisioned digest: %v", err)
		}
	})

	t.Run("binding", func(t *testing.T) {
		b := setup(base)
		mitm := guestKey(t, 666)
		_, _, err := exchange(t, b, pl, "acme", 0, func(req *kbs.RedeemRequest) {
			req.GuestPub = mitm.PublicKey().Bytes()
		})
		if keyOf(err) != kbs.ReasonBinding {
			t.Fatalf("substituted guest key: %v", err)
		}
	})
}

func TestVerificationCaches(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	if err := b.File(kbs.RefClaim(pl.digest, "img")); err != nil {
		t.Fatal(err)
	}
	first, _, err := exchange(t, b, pl, "acme", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.ChainCached || first.VerdictCached {
		t.Fatal("cold exchange reported cache hits")
	}
	second, _, err := exchange(t, b, pl, "acme", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !second.ChainCached || !second.VerdictCached {
		t.Fatal("hot exchange missed the caches")
	}
	// Cached verdicts must not weaken per-exchange checks: a forged
	// signature on the hot path is still refused.
	_, _, err = exchange(t, b, pl, "acme", 0, func(req *kbs.RedeemRequest) {
		req.Report[len(req.Report)-1] ^= 0xFF
	})
	if keyOf(err) != kbs.ReasonForged {
		t.Fatalf("forged report on hot path: %v", err)
	}
	s, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.ChainHits == 0 || s.VerdictHit == 0 {
		t.Fatalf("stats missing cache hits: %+v", s)
	}
	if s.Grants != 2 || s.Denials["forged"] != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

func TestResignReport(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	report, err := pl.ctx.BuildReport(nil, [64]byte{})
	if err != nil {
		t.Fatal(err)
	}
	older, _ := currentTCB.Predecessor()
	staleKey := auth.VCEKKey("chip-0", older)
	resigned, err := kbs.ResignReport(report.Marshal(), staleKey, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := psp.UnmarshalReport(resigned)
	if err != nil {
		t.Fatal(err)
	}
	if err := psp.VerifyReport(&staleKey.PublicKey, r); err != nil {
		t.Fatalf("resigned report does not verify under new key: %v", err)
	}
	currentKey := auth.VCEKKey("chip-0", currentTCB)
	if psp.VerifyReport(&currentKey.PublicKey, r) == nil {
		t.Fatal("resigned report still verifies under the current-TCB key")
	}
	if r.Measurement != pl.digest {
		t.Fatal("resigning altered the report body")
	}
}

// remoteStats reads a served broker's counters from its /stats endpoint.
func remoteStats(t *testing.T, base string) kbs.Stats {
	t.Helper()
	r, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var s kbs.Stats
	if err := json.NewDecoder(r.Body).Decode(&s); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	return s
}

func TestHTTPRoundTrip(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	c := &kbs.Client{Base: srv.URL}

	// File the reference value over the wire, then a full exchange.
	if err := c.File(kbs.RefClaim(pl.digest, "img")); err != nil {
		t.Fatal(err)
	}
	res, priv, err := exchange(t, c, pl, "acme", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	secret, err := kbs.UnwrapSecret(priv, res.Bundle)
	if err != nil || string(secret) != "acme disk key" {
		t.Fatalf("unwrap over HTTP: %q, %v", secret, err)
	}

	// Denial reasons survive the wire: revoke remotely, then errors.Is
	// still matches the typed sentinel client-side.
	if err := c.File(kbs.RevocationClaim("chip-0", 0)); err != nil {
		t.Fatal(err)
	}
	_, _, err = exchange(t, c, pl, "acme", 0, nil)
	if keyOf(err) != "revoked" || !errors.Is(err, kbs.ErrDenied) {
		t.Fatalf("remote denial lost its reason: %v", err)
	}
	if s := remoteStats(t, srv.URL); s.Grants != 1 || s.Denials["revoked"] != 1 || s.Tenants != 1 {
		t.Fatalf("remote stats wrong: %+v", s)
	}
}

// TestWrongSizeGuestKeyDenied: a guest key that is not 32 bytes is
// refused as malformed before any crypto, whether the broker is in
// process or across the wire, and the refusal is counted. Over HTTP it
// is a 403 carrying the reason, not a 500 from the wrap.
func TestWrongSizeGuestKeyDenied(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	if err := b.File(kbs.RefClaim(pl.digest, "img")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	for _, svc := range []kbs.Service{b, &kbs.Client{Base: srv.URL}} {
		for _, n := range []int{0, 31, 33, 64} {
			// The report binds the short key, so only its size is wrong.
			_, _, err := exchange(t, svc, pl, "acme", 0, func(req *kbs.RedeemRequest) {
				key := make([]byte, n)
				copy(key, req.GuestPub)
				rd := kbs.BindReportData(req.Nonce, key)
				r, err := pl.ctx.BuildReport(nil, rd)
				if err != nil {
					t.Fatal(err)
				}
				req.Report, req.GuestPub = r.Marshal(), key
			})
			if keyOf(err) != kbs.ReasonMalformed {
				t.Fatalf("%T: %d-byte guest key: %v, want a malformed denial", svc, n, err)
			}
		}
	}
	s, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Denials["malformed"] != 8 || s.Grants != 0 {
		t.Fatalf("stats %+v, want 8 malformed denials and no grant", s)
	}
}

func TestWrapTamperDetected(t *testing.T) {
	priv := guestKey(t, 5)
	bundle, err := kbs.WrapSecret(rand.New(rand.NewSource(9)), priv.PublicKey().Bytes(), []byte("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	bundle.Ciphertext[0] ^= 1
	if _, err := kbs.UnwrapSecret(priv, bundle); err == nil {
		t.Fatal("tampered ciphertext unwrapped")
	}
}

func TestDenialOfFindsWrappedRefusal(t *testing.T) {
	if keyOf(errors.New("plain")) != "" {
		t.Fatal("plain error has a reason")
	}
	stale := &policy.Denial{Gate: policy.GateBroker, Rule: policy.RulePlatform, Reason: policy.ReasonTCBFloor}
	wrapped := errors.Join(errors.New("ctx"), stale)
	if keyOf(wrapped) != "stale-tcb" {
		t.Fatal("wrapped denial lost its reason")
	}
}

// keyOf is the key a refusal is counted under, or "" for an error that
// is no refusal.
func keyOf(err error) policy.Reason {
	if d := policy.DenialOf(err); d != nil {
		return policy.Reason(d.Key())
	}
	return ""
}

// TestBrokerReasonsHaveLedgerCells: every reason the broker refuses with
// on its own is a cell of policy.Ledger, counted under its own word.
func TestBrokerReasonsHaveLedgerCells(t *testing.T) {
	for _, r := range []policy.Reason{kbs.ReasonTenant, kbs.ReasonReplay, kbs.ReasonExpired, kbs.ReasonMalformed,
		kbs.ReasonForged, kbs.ReasonBinding, kbs.ReasonPolicy, kbs.ReasonUnavailable} {
		var l policy.Ledger
		l.Add(&policy.Denial{Gate: policy.GateBroker, Reason: r})
		if got, want := l.Counts(policy.GateBroker), map[string]int{string(r): 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s counted as %v, want %v", r, got, want)
		}
	}
}

// engineRefusalAllocCeiling bounds the objects one Redeem allocates when
// the policy engine refuses it (an unlisted launch digest; chain cached,
// verdict re-evaluated). The broker returns the engine's own denial,
// stamped, where it once wrapped it in a second type with its detail
// formatted again, and finds it without errors.As: 22 objects before, 16
// since.
const engineRefusalAllocCeiling = 16

// TestEngineRefusalAllocations holds a broker's engine refusal to
// engineRefusalAllocCeiling objects, counting Redeem alone.
func TestEngineRefusalAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3}) // no reference value
	const runs = 50
	reqs := make([]kbs.RedeemRequest, runs+1)
	pub := guestKey(t, 99).PublicKey().Bytes()
	for i := range reqs {
		ch, err := b.Challenge("acme", 0)
		if err != nil {
			t.Fatal(err)
		}
		report, err := pl.ctx.BuildReport(nil, kbs.BindReportData(ch.Nonce, pub))
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = kbs.RedeemRequest{Tenant: "acme", Nonce: ch.Nonce, Report: report.Marshal(),
			Chain: pl.enr.Chain.Marshal(), GuestPub: pub}
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, err := b.Redeem(reqs[i], 0); !errors.Is(err, kbs.ErrMeasurement) {
			t.Fatalf("redeem %d: %v, want a measurement refusal", i, err)
		}
		i++
	})
	t.Logf("an engine refusal allocates %v objects", got)
	if got > engineRefusalAllocCeiling {
		t.Errorf("an engine refusal allocates %v objects, want at most %d", got, engineRefusalAllocCeiling)
	}
}
