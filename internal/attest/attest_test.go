package attest

import (
	"crypto/ecdsa"
	"math/rand"
	"testing"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
)

// launchGuest boots a minimal launch context and returns the platform,
// its context, and the final digest.
func launchGuest(t *testing.T, seed int64, level sev.Level, policy sev.Policy) (*psp.PSP, *psp.GuestContext, [32]byte) {
	t.Helper()
	p := psp.New(costmodel.Unit(), seed)
	mem := guestmem.New(1 << 20)
	ctx, err := p.LaunchStart(nil, mem, level, policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.HostWrite(0x1000, []byte("boot verifier image")); err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchUpdateData(nil, 0x1000, 19, sev.PageNormal); err != nil {
		t.Fatal(err)
	}
	digest, err := ctx.LaunchFinish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, ctx, digest
}

// owner is the in-process owner ForLaunch builds, trusting platform,
// allowing only digest at the default policy floor, and wrapping secret
// from a stream seeded 7.
func owner(platform *ecdsa.PublicKey, digest [32]byte, secret []byte) *inProcess {
	return &inProcess{
		platform:  platform,
		digest:    digest,
		minPolicy: sev.DefaultPolicy(),
		secret:    secret,
		rng:       rand.New(rand.NewSource(7)),
	}
}

// wantDenial fails t unless err is a denial for reason r.
func wantDenial(t *testing.T, err error, r policy.Reason) {
	t.Helper()
	if keyOf(err) != r {
		t.Fatalf("err = %v, want a %s denial", err, r)
	}
}

func TestHappyPathReleasesSecret(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	secret := []byte("disk encryption key 0123456789ab")
	o := owner(platform.VerificationKey(), digest, secret)

	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := o.release(report.Marshal(), agent.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	got, err := agent.Unwrap(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(secret) {
		t.Fatal("unwrapped secret differs")
	}
}

func TestUnknownMeasurementRefused(t *testing.T) {
	platform, ctx, _ := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	o := owner(platform.VerificationKey(), [32]byte{}, []byte("s")) // its digest is not allowed
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.release(report.Marshal(), agent.PublicKey())
	wantDenial(t, err, "measurement")
}

func TestForgedSignatureRefused(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	o := owner(platform.VerificationKey(), digest, []byte("s"))
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	raw := report.Marshal()
	raw[len(raw)-1] ^= 0xFF // corrupt the signature
	_, err = o.release(raw, agent.PublicKey())
	wantDenial(t, err, kbs.ReasonForged)
}

func TestWrongPlatformRefused(t *testing.T) {
	_, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	other := psp.New(costmodel.Unit(), 2)
	o := owner(other.VerificationKey(), digest, []byte("s"))
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.release(report.Marshal(), agent.PublicKey())
	wantDenial(t, err, kbs.ReasonForged)
}

func TestWeakPolicyRefused(t *testing.T) {
	weak := sev.Policy{ESRequired: true} // missing NoDebug/NoKeySharing
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, weak)
	o := owner(platform.VerificationKey(), digest, []byte("s"))
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.release(report.Marshal(), agent.PublicKey())
	wantDenial(t, err, kbs.ReasonPolicy)
}

// TestLowLevelRefused: a plain-SEV guest whose policy meets its own
// floor is still refused, because the one-shot exchange wants SEV-SNP.
func TestLowLevelRefused(t *testing.T) {
	pol := sev.Policy{NoDebug: true, NoKeySharing: true}
	platform, ctx, digest := launchGuest(t, 1, sev.SEV, pol)
	o := owner(platform.VerificationKey(), digest, []byte("s"))
	o.minPolicy = pol
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.release(report.Marshal(), agent.PublicKey())
	wantDenial(t, err, kbs.ReasonPolicy)
}

func TestKeySubstitutionRefused(t *testing.T) {
	// A MITM swapping the guest public key must fail the binding check.
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	o := owner(platform.VerificationKey(), digest, []byte("s"))
	agent := NewAgentSeeded(99)
	mitm := NewAgentSeeded(666)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.release(report.Marshal(), mitm.PublicKey())
	wantDenial(t, err, kbs.ReasonBinding)
}

func TestWrongAgentCannotUnwrap(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	o := owner(platform.VerificationKey(), digest, []byte("secret!"))
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := o.release(report.Marshal(), agent.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	eavesdropper := NewAgentSeeded(1234)
	if _, err := eavesdropper.Unwrap(bundle); err == nil {
		t.Fatal("eavesdropper decrypted the secret")
	}
	// Tampered ciphertext must also fail (GCM).
	bundle.Ciphertext[0] ^= 1
	if _, err := agent.Unwrap(bundle); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
}

// attestWithChain is the chain-rooted owner flow on production pieces:
// the key broker's verifier walks the host-relayed chain to the pinned
// AMD root, and an owner keyed by the chain's VCEK validates the report
// and releases secret to agent.
func attestWithChain(v *kbs.Verifier, digest [32]byte, secret, report, chain []byte, agent *Agent) ([]byte, error) {
	c, _, err := v.VerifyChain(chain)
	if err != nil {
		return nil, err
	}
	bundle, err := owner(c.VCEK.Key(), digest, secret).release(report, agent.PublicKey())
	if err != nil {
		return nil, err
	}
	return agent.Unwrap(bundle)
}

// enrolledGuest is launchGuest on a platform enrolled under an authority
// from seed 7 as chip-a: the platform signs with the authority's VCEK, and
// the authority issues the chain a relying party checks.
func enrolledGuest(t *testing.T, seed int64) (*kbs.Authority, *kbs.Enrollment, *psp.GuestContext, [32]byte) {
	t.Helper()
	platform, ctx, digest := launchGuest(t, seed, sev.SNP, sev.DefaultPolicy())
	auth := kbs.NewAuthority(7)
	return auth, auth.Enroll(platform, "chip-a", kbs.TCB{SNP: 8}), ctx, digest
}

func TestChainBasedAttestation(t *testing.T) {
	auth, enr, ctx, digest := enrolledGuest(t, 1)
	secret := []byte("chain-released secret")
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	// The owner pins only AMD's root key.
	got, err := attestWithChain(kbs.NewVerifier(auth.Root()), digest, secret,
		report.Marshal(), enr.Chain.Marshal(), agent)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(secret) {
		t.Fatal("secret mismatch via chain attestation")
	}
}

func TestChainAttestationRejectsForeignChain(t *testing.T) {
	auth, _, ctx, digest := enrolledGuest(t, 1)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	// A malicious host presents a chain minted under a root of its own:
	// the ARK pin refuses.
	evil := kbs.NewAuthority(666).ChainFor("chip-a", kbs.TCB{SNP: 8})
	if _, err := attestWithChain(kbs.NewVerifier(auth.Root()), digest, []byte("s"),
		report.Marshal(), evil.Marshal(), agent); keyOf(err) != kbs.ReasonForged {
		t.Fatalf("foreign chain: %v, want a forged denial", err)
	}
}

func TestChainAttestationRejectsWrongVCEK(t *testing.T) {
	// Valid chain from the right platform, but report signed by a
	// different key (another platform's VCEK): signature check fails.
	auth, enrA, _, _ := enrolledGuest(t, 1)
	_, ctxB, digestB := launchGuest(t, 2, sev.SNP, sev.DefaultPolicy())
	agent := NewAgentSeeded(99)
	report, err := ctxB.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attestWithChain(kbs.NewVerifier(auth.Root()), digestB, []byte("s"),
		report.Marshal(), enrA.Chain.Marshal(), agent); keyOf(err) != kbs.ReasonForged {
		t.Fatalf("cross-platform report: %v, want a forged denial", err)
	}
}

// TestForLaunchAttestsOnlyWhatCanAttest: ForLaunch is the one rule for when
// a boot attests. A guest without networking (Lupine) or without a report
// (no SEV) gets no owner, and no digest is computed for it; any other
// launch gets an owner, whichever monitor runs it.
func TestForLaunchAttestsOnlyWhatCanAttest(t *testing.T) {
	platform := psp.New(costmodel.Unit(), 1).VerificationKey()
	for _, tc := range []struct {
		name   string
		preset kernelgen.Preset
		scheme firecracker.Scheme
		level  sev.Level
		want   bool
	}{
		{"lupine/snp", kernelgen.Lupine(), firecracker.SchemeSEVeriFastBz, sev.SNP, false},
		{"lupine/qemu", kernelgen.Lupine(), firecracker.SchemeQEMUOVMF, sev.SNP, false},
		{"aws/none", kernelgen.AWS(), firecracker.SchemeStock, sev.None, false},
		{"aws/snp", kernelgen.AWS(), firecracker.SchemeSEVeriFastBz, sev.SNP, true},
		{"aws/qemu", kernelgen.AWS(), firecracker.SchemeQEMUOVMF, sev.SNP, true},
	} {
		// Without artifacts a launch has no digest, so any digest asked for
		// fails: a nil owner with no error means none was computed.
		launch := firecracker.Config{Preset: tc.preset, Scheme: tc.scheme, Level: tc.level}
		if tc.want {
			art, err := kernelgen.Cached(tc.preset)
			if err != nil {
				t.Fatal(err)
			}
			launch.Artifacts = art
		}
		a, err := ForLaunch(platform, launch, 1)
		if err != nil || (a != nil) != tc.want {
			t.Errorf("%s: ForLaunch = %v, %v; want an owner: %v", tc.name, a, err, tc.want)
		}
	}
}

// TestOneShotAndBrokerRefuseAlike feeds the in-process exchange and
// kbs.Broker.Redeem the same evidence from one enrolled guest, each with
// the report binding the guest key the way its side binds it, and holds
// both to the same denial reason for every kind of bad evidence.
func TestOneShotAndBrokerRefuseAlike(t *testing.T) {
	auth, enr, ctx, digest := enrolledGuest(t, 1)
	vcek := auth.VCEKKey(enr.ChipID, enr.TCB)
	secret := []byte("one secret")
	b := kbs.NewBroker(auth.Root(), kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	b.AddTenant("acme", secret)
	if err := b.File(kbs.RefClaim(digest, "img")); err != nil {
		t.Fatal(err)
	}
	// resigned applies change to the report and signs it again with the
	// platform's VCEK, so only the change is wrong.
	resigned := func(change func(r *psp.Report)) func(*testing.T, *psp.Report) []byte {
		return func(t *testing.T, r *psp.Report) []byte {
			change(r)
			if err := r.Sign(rand.New(rand.NewSource(1)), vcek); err != nil {
				t.Fatal(err)
			}
			return r.Marshal()
		}
	}
	sharing := sev.DefaultPolicy()
	sharing.NoKeySharing = false
	key := NewAgentSeeded(99).PublicKey()
	for _, tc := range []struct {
		name string
		bind []byte // the key the report binds, sent unless send is set
		send []byte
		// tamper returns the report bytes sent; nil sends the report.
		tamper func(*testing.T, *psp.Report) []byte
		want   policy.Reason // "" is a grant
	}{
		{name: "genuine", bind: key},
		{name: "forged signature", bind: key, tamper: func(_ *testing.T, r *psp.Report) []byte {
			raw := r.Marshal()
			raw[len(raw)-1] ^= 0xFF
			return raw
		}, want: kbs.ReasonForged},
		{name: "unlisted digest", bind: key, tamper: resigned(func(r *psp.Report) { r.Measurement[0] ^= 1 }), want: "measurement"},
		{name: "level below SNP", bind: key, tamper: resigned(func(r *psp.Report) { r.Level = sev.ES }), want: kbs.ReasonPolicy},
		{name: "key-sharing policy", bind: key, tamper: resigned(func(r *psp.Report) { r.Policy = sharing.Encode() }), want: kbs.ReasonPolicy},
		{name: "substituted guest key", bind: key, send: NewAgentSeeded(666).PublicKey(), want: kbs.ReasonBinding},
		{name: "truncated report", bind: key, tamper: func(_ *testing.T, r *psp.Report) []byte {
			raw := r.Marshal()
			return raw[:len(raw)-1]
		}, want: kbs.ReasonMalformed},
		{name: "31-byte key", bind: key[:31], want: kbs.ReasonMalformed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			send := tc.send
			if send == nil {
				send = tc.bind
			}
			evidence := func(rd [64]byte) []byte {
				r, err := ctx.BuildReport(nil, rd)
				if err != nil {
					t.Fatal(err)
				}
				if tc.tamper == nil {
					return r.Marshal()
				}
				return tc.tamper(t, r)
			}
			_, oneShot := owner(enr.Chain.VCEK.Key(), digest, secret).release(evidence(keyData(tc.bind)), send)

			ch, err := b.Challenge("acme", 0)
			if err != nil {
				t.Fatal(err)
			}
			_, broker := b.Redeem(kbs.RedeemRequest{
				Tenant:   "acme",
				Nonce:    ch.Nonce,
				Report:   evidence(kbs.BindReportData(ch.Nonce, tc.bind)),
				Chain:    enr.Chain.Marshal(),
				GuestPub: send,
			}, 0)

			for _, side := range []struct {
				name string
				err  error
			}{{"one-shot", oneShot}, {"broker", broker}} {
				if keyOf(side.err) != tc.want || (tc.want == "") != (side.err == nil) {
					t.Errorf("%s: %v, want reason %q", side.name, side.err, tc.want)
				}
			}
		})
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
