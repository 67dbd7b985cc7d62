// Package attest implements remote attestation for SEV guests (paper
// §2.4, Fig. 1 steps 5-8): the guest-side agent that requests a signed
// report from the PSP and the guest-owner service that validates it and
// releases secrets over a channel bound to the report.
//
// All cryptography is real: the report signature is ECDSA P-384 verified
// against the platform key, the channel is X25519 ECDH, and the secret is
// wrapped with AES-256-GCM under the derived key. A report with the wrong
// measurement, policy, level, signature, or key binding releases nothing.
package attest

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// ErrDenied matches every attestation refusal: errors.Is(err, ErrDenied)
// is true whenever the owner rejected the evidence, regardless of which
// specific check failed.
var ErrDenied = errors.New("attest: denied")

// Errors distinguish why attestation failed; tests assert the category.
// Each wraps ErrDenied, so errors.Is works against both the specific
// sentinel and the umbrella.
var (
	ErrSignature   = fmt.Errorf("%w: report signature invalid", ErrDenied)
	ErrMeasurement = fmt.Errorf("%w: launch digest not in the allow list", ErrDenied)
	ErrPolicy      = fmt.Errorf("%w: guest policy weaker than required", ErrDenied)
	ErrLevel       = fmt.Errorf("%w: SEV level below required", ErrDenied)
	ErrBinding     = fmt.Errorf("%w: report data does not bind the guest key", ErrDenied)
)

// Agent is the guest-side attestation agent, shipped in the initrd. Its
// ephemeral key pair is generated in encrypted guest memory at attestation
// time (§2.6 "Secret-free Construction").
type Agent struct {
	priv *ecdh.PrivateKey
}

// NewAgentSeeded generates the guest's ephemeral X25519 key from a source
// seeded with seed (the guest entropy source, in simulation).
func NewAgentSeeded(seed int64) *Agent {
	priv, err := kbs.DeriveKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		panic("attest: seeded keygen cannot fail: " + err.Error())
	}
	return &Agent{priv: priv}
}

// PublicKey returns the agent's public key bytes, sent with the report.
func (a *Agent) PublicKey() []byte { return a.priv.PublicKey().Bytes() }

// ReportData binds the agent's public key into the attestation report:
// SHA-256 of the key in the first half of the 64-byte field.
func (a *Agent) ReportData() [64]byte {
	var rd [64]byte
	sum := sha256.Sum256(a.PublicKey())
	copy(rd[:32], sum[:])
	return rd
}

// Unwrap opens a secret bundle (Fig. 1 step 8) with the agent's key. The
// guest owner and the key broker wrap alike (kbs.WrapSecret), so this is
// the guest side of both exchanges.
func (a *Agent) Unwrap(b *kbs.Bundle) ([]byte, error) {
	return kbs.UnwrapSecret(a.priv, b)
}

// Owner is the guest owner's validation service: it knows the platform
// verification key, the expected launch digests (from the §4.2 digest
// tool), and the minimum acceptable policy/level.
type Owner struct {
	platformKey *ecdsa.PublicKey
	allowed     map[[32]byte]bool
	minPolicy   sev.Policy
	minLevel    sev.Level
	secret      []byte
	rng         io.Reader
}

// NewOwner builds an owner releasing secret to guests whose measurement is
// later allowed via Allow. rng drives ephemeral key generation (seeded in
// simulation).
func NewOwner(platformKey *ecdsa.PublicKey, secret []byte, rng io.Reader) *Owner {
	return &Owner{
		platformKey: platformKey,
		allowed:     make(map[[32]byte]bool),
		minPolicy:   sev.DefaultPolicy(),
		minLevel:    sev.SNP,
		secret:      append([]byte(nil), secret...),
		rng:         rng,
	}
}

// Allow whitelists an expected launch digest.
func (o *Owner) Allow(digest [32]byte) { o.allowed[digest] = true }

// RequirePolicy sets the minimum policy bits (default DefaultPolicy).
func (o *Owner) RequirePolicy(p sev.Policy) { o.minPolicy = p }

// HandleReport validates a marshaled report plus the guest's public key
// and, on success, returns the wrapped secret.
func (o *Owner) HandleReport(reportBytes, guestPub []byte) (*kbs.Bundle, error) {
	// Both inputs are host-relayed; reject wrong-size keys before any
	// crypto so a garbage key cannot reach ECDH with a confusing error.
	if len(guestPub) != 32 {
		return nil, fmt.Errorf("%w: guest key is %d bytes, want 32", ErrBinding, len(guestPub))
	}
	r, err := psp.UnmarshalReport(reportBytes)
	if err != nil {
		return nil, err
	}
	if err := psp.VerifyReport(o.platformKey, r); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSignature, err)
	}
	if !o.allowed[r.Measurement] {
		return nil, fmt.Errorf("%w: %x", ErrMeasurement, r.Measurement[:8])
	}
	if r.Level < o.minLevel {
		return nil, fmt.Errorf("%w: %v < %v", ErrLevel, r.Level, o.minLevel)
	}
	pol := sev.DecodePolicy(r.Policy)
	if (o.minPolicy.NoDebug && !pol.NoDebug) ||
		(o.minPolicy.NoKeySharing && !pol.NoKeySharing) ||
		(o.minPolicy.ESRequired && !pol.ESRequired) {
		return nil, fmt.Errorf("%w: got %+v", ErrPolicy, pol)
	}
	sum := sha256.Sum256(guestPub)
	var want [64]byte
	copy(want[:32], sum[:])
	if r.ReportData != want {
		return nil, ErrBinding
	}

	// Wrap the secret for the attested guest key, as the key broker does.
	return kbs.WrapSecret(o.rng, guestPub, o.secret)
}

// ForLaunch is the in-process guest owner one attested boot of launch talks
// to, or nil where there is nothing to attest with: Lupine has no
// networking (§6.1) and a plain guest has no report. It trusts platform,
// allows exactly the launch's expected digest, accepts the launch's policy
// when that relaxes key sharing — a trade-off the owner knowingly opted
// into, not a silent downgrade — and releases "secret-<preset>" to an
// agent seeded from seed.
func ForLaunch(platform *ecdsa.PublicKey, launch firecracker.Config, seed int64) (firecracker.Attestor, error) {
	if !launch.Preset.Networking || !launch.Level.Encrypted() {
		return nil, nil
	}
	digest, err := launch.ExpectedDigest()
	if err != nil {
		return nil, err
	}
	secret := []byte("secret-" + launch.Preset.Name)
	owner := NewOwner(platform, secret, rand.New(rand.NewSource(seed^0xA77)))
	owner.Allow(digest)
	if policy := launch.Policy(); !policy.NoKeySharing {
		owner.RequirePolicy(policy)
	}
	return &inProcess{owner: owner, agentSeed: seed, wantSecret: secret}, nil
}

// inProcess runs the full attestation round trip inside the simulation,
// charging virtual time: report generation on the shared PSP (which
// contends under concurrency, Fig. 12) plus the network/validation span.
// The unwrapped secret must equal wantSecret.
type inProcess struct {
	owner      *Owner
	agentSeed  int64
	wantSecret []byte
}

// Attest performs Fig. 1 steps 5-8 for machine m.
func (ip *inProcess) Attest(proc *sim.Proc, m *kvm.Machine) error {
	if m.Launch == nil {
		return errors.New("attest: machine has no launch context")
	}
	agent := NewAgentSeeded(ip.agentSeed + int64(m.Launch.ASID()))
	// Guest requests the report; the PSP builds and signs it (charged on
	// the shared PSP resource).
	report, err := m.Launch.BuildReport(proc, agent.ReportData())
	if err != nil {
		return err
	}
	// Network round trip + server-side validation.
	proc.Sleep(m.Host.Model.AttestNetwork)
	bundle, err := ip.owner.HandleReport(report.Marshal(), agent.PublicKey())
	if err != nil {
		return err
	}
	secret, err := agent.Unwrap(bundle)
	if err != nil {
		return err
	}
	if string(secret) != string(ip.wantSecret) {
		return errors.New("attest: unwrapped secret mismatch")
	}
	return nil
}
