package attest

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
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

func TestHappyPathReleasesSecret(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	secret := []byte("disk encryption key 0123456789ab")
	owner := NewOwner(platform.VerificationKey(), secret, rand.New(rand.NewSource(7)))
	owner.Allow(digest)

	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := owner.HandleReport(report.Marshal(), agent.PublicKey())
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
	owner := NewOwner(platform.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	// Nothing allowed.
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.HandleReport(report.Marshal(), agent.PublicKey()); !errors.Is(err, ErrMeasurement) {
		t.Fatalf("err = %v, want ErrMeasurement", err)
	}
}

func TestForgedSignatureRefused(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	owner := NewOwner(platform.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	raw := report.Marshal()
	raw[len(raw)-1] ^= 0xFF // corrupt the signature
	if _, err := owner.HandleReport(raw, agent.PublicKey()); !errors.Is(err, ErrSignature) {
		t.Fatalf("err = %v, want ErrSignature", err)
	}
}

func TestWrongPlatformRefused(t *testing.T) {
	_, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	other := psp.New(costmodel.Unit(), 2)
	owner := NewOwner(other.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.HandleReport(report.Marshal(), agent.PublicKey()); !errors.Is(err, ErrSignature) {
		t.Fatalf("err = %v, want ErrSignature", err)
	}
}

func TestWeakPolicyRefused(t *testing.T) {
	weak := sev.Policy{ESRequired: true} // missing NoDebug/NoKeySharing
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, weak)
	owner := NewOwner(platform.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.HandleReport(report.Marshal(), agent.PublicKey()); !errors.Is(err, ErrPolicy) {
		t.Fatalf("err = %v, want ErrPolicy", err)
	}
}

func TestLowLevelRefused(t *testing.T) {
	pol := sev.Policy{NoDebug: true, NoKeySharing: true}
	platform, ctx, digest := launchGuest(t, 1, sev.SEV, pol)
	owner := NewOwner(platform.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	owner.RequirePolicy(pol)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.HandleReport(report.Marshal(), agent.PublicKey()); !errors.Is(err, ErrLevel) {
		t.Fatalf("err = %v, want ErrLevel", err)
	}
	owner.minLevel = sev.SEV
	if _, err := owner.HandleReport(report.Marshal(), agent.PublicKey()); err != nil {
		t.Fatalf("lowered requirement still refused: %v", err)
	}
}

func TestKeySubstitutionRefused(t *testing.T) {
	// A MITM swapping the guest public key must fail the binding check.
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	owner := NewOwner(platform.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	agent := NewAgentSeeded(99)
	mitm := NewAgentSeeded(666)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.HandleReport(report.Marshal(), mitm.PublicKey()); !errors.Is(err, ErrBinding) {
		t.Fatalf("err = %v, want ErrBinding", err)
	}
}

func TestWrongAgentCannotUnwrap(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	owner := NewOwner(platform.VerificationKey(), []byte("secret!"), rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := owner.HandleReport(report.Marshal(), agent.PublicKey())
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

func TestHTTPServerRoundTrip(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	secret := []byte("network secret")
	owner := NewOwner(platform.VerificationKey(), secret, rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()

	agent := NewAgentSeeded(5)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := Client(srv.URL, report.Marshal(), agent.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	got, err := agent.Unwrap(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(secret) {
		t.Fatal("secret differs over HTTP")
	}
}

func TestHTTPServerRefusesBadReport(t *testing.T) {
	platform, _, _ := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	owner := NewOwner(platform.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()
	if _, err := Client(srv.URL, []byte("garbage"), []byte("junk")); err == nil {
		t.Fatal("garbage report accepted over HTTP")
	}
}

// attestWithChain is the chain-rooted owner flow on production pieces:
// the key broker's verifier walks the host-relayed chain to the pinned
// AMD root, and an owner keyed by the chain's VCEK validates the report
// and releases secret to agent.
func attestWithChain(v *kbs.Verifier, digest [32]byte, secret, report, chain []byte, agent *Agent) ([]byte, error) {
	c, _, err := v.VerifyChain(chain)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSignature, err)
	}
	owner := NewOwner(c.VCEK.Key(), secret, rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	bundle, err := owner.HandleReport(report, agent.PublicKey())
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
	report, err := ctx.BuildReport(nil, agent.ReportData())
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
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	// A malicious host presents a chain minted under a root of its own:
	// the ARK pin refuses.
	evil := kbs.NewAuthority(666).ChainFor("chip-a", kbs.TCB{SNP: 8})
	if _, err := attestWithChain(kbs.NewVerifier(auth.Root()), digest, []byte("s"),
		report.Marshal(), evil.Marshal(), agent); err == nil {
		t.Fatal("foreign chain accepted")
	}
}

func TestChainAttestationRejectsWrongVCEK(t *testing.T) {
	// Valid chain from the right platform, but report signed by a
	// different key (another platform's VCEK): signature check fails.
	auth, enrA, _, _ := enrolledGuest(t, 1)
	_, ctxB, digestB := launchGuest(t, 2, sev.SNP, sev.DefaultPolicy())
	agent := NewAgentSeeded(99)
	report, err := ctxB.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attestWithChain(kbs.NewVerifier(auth.Root()), digestB, []byte("s"),
		report.Marshal(), enrA.Chain.Marshal(), agent); !errors.Is(err, ErrSignature) {
		t.Fatalf("cross-platform report accepted: %v", err)
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
