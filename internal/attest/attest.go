// Package attest is the guest side of remote attestation (paper §2.4,
// Fig. 1 steps 5-8) and the simulated one-shot exchange an attested boot
// runs: the agent that asks the PSP for a signed report binding its
// ephemeral key, and the in-process guest owner that checks the report
// and releases a secret over a channel bound to it. The relying party a
// guest reaches over the network is the key broker, internal/kbs.
//
// All cryptography is real: the report signature is ECDSA P-384 verified
// against the platform key, the channel is X25519 ECDH, and the secret is
// wrapped with AES-256-GCM under the derived key. A report with the wrong
// measurement, policy, level, signature, or key binding releases nothing,
// and every refusal is a broker-gate *policy.Denial with the broker's key.
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
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
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

// reportData binds the agent's public key into the attestation report:
// SHA-256 of the key in the first half of the 64-byte field.
func (a *Agent) reportData() [64]byte { return keyData(a.PublicKey()) }

// keyData is the report data binding guestPub in the one-shot exchange.
func keyData(guestPub []byte) [64]byte {
	var rd [64]byte
	sum := sha256.Sum256(guestPub)
	copy(rd[:32], sum[:])
	return rd
}

// Unwrap opens a secret bundle (Fig. 1 step 8) with the agent's key. The
// guest owner and the key broker wrap alike (kbs.WrapSecret), so this is
// the guest side of both exchanges.
func (a *Agent) Unwrap(b *kbs.Bundle) ([]byte, error) {
	return kbs.UnwrapSecret(a.priv, b)
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
	minPolicy := sev.DefaultPolicy()
	if policy := launch.Policy(); !policy.NoKeySharing {
		minPolicy = policy
	}
	return &inProcess{
		platform:  platform,
		digest:    digest,
		minPolicy: minPolicy,
		secret:    []byte("secret-" + launch.Preset.Name),
		rng:       rand.New(rand.NewSource(seed ^ 0xA77)),
		agentSeed: seed,
	}, nil
}

// inProcess runs the full attestation round trip inside the simulation,
// charging virtual time: report generation on the shared PSP (which
// contends under concurrency, Fig. 12) plus the network/validation span.
// The guest must unwrap exactly the secret the owner released.
type inProcess struct {
	platform  *ecdsa.PublicKey
	digest    [32]byte
	minPolicy sev.Policy
	secret    []byte
	rng       io.Reader // the wrap's ephemeral keys and nonces
	agentSeed int64
}

// Attest performs Fig. 1 steps 5-8 for machine m.
func (ip *inProcess) Attest(proc *sim.Proc, m *kvm.Machine) error {
	if m.Launch == nil {
		return errors.New("attest: machine has no launch context")
	}
	agent := NewAgentSeeded(ip.agentSeed + int64(m.Launch.ASID()))
	// Guest requests the report; the PSP builds and signs it (charged on
	// the shared PSP resource).
	report, err := m.Launch.BuildReport(proc, agent.reportData())
	if err != nil {
		return err
	}
	// Network round trip + server-side validation.
	proc.Sleep(m.Host.Model.AttestNetwork)
	bundle, err := ip.release(report.Marshal(), agent.PublicKey())
	if err != nil {
		return err
	}
	secret, err := agent.Unwrap(bundle)
	if err != nil {
		return err
	}
	if string(secret) != string(ip.secret) {
		return errors.New("attest: unwrapped secret mismatch")
	}
	return nil
}

// release is the owner's side of the exchange: it checks a marshaled
// report and the guest key it claims to bind, and wraps the secret for
// that key. Each refusal carries the reason kbs.Broker gives the same
// evidence, and the level and policy floors are the broker's own check.
func (ip *inProcess) release(reportBytes, guestPub []byte) (*kbs.Bundle, error) {
	// Both inputs are host-relayed; a wrong-size key is refused before
	// any crypto, as the broker refuses it.
	if len(guestPub) != 32 {
		return nil, refuse(kbs.ReasonMalformed, nil, "guest key is %d bytes, want 32", len(guestPub))
	}
	r, err := psp.UnmarshalReport(reportBytes)
	if err != nil {
		return nil, refuse(kbs.ReasonMalformed, err, "report: %v", err)
	}
	if err := psp.VerifyReport(ip.platform, r); err != nil {
		return nil, refuse(kbs.ReasonForged, err, "%v", err)
	}
	if r.Measurement != ip.digest {
		return nil, refuse(policy.ReasonMeasurementUnknown, nil, "launch digest %x not allowed", r.Measurement[:8])
	}
	if err := kbs.CheckFloors(r, sev.SNP, ip.minPolicy); err != nil {
		return nil, err
	}
	if r.ReportData != keyData(guestPub) {
		return nil, refuse(kbs.ReasonBinding, nil, "report data does not bind the guest key")
	}
	return kbs.WrapSecret(ip.rng, guestPub, ip.secret)
}

// refuse builds the denial release returns: a broker-gate one, with no
// rule, as its digest check is not the engine's.
func refuse(r policy.Reason, cause error, format string, args ...any) error {
	return &policy.Denial{Gate: policy.GateBroker, Reason: r, Detail: fmt.Sprintf(format, args...), Cause: cause}
}
