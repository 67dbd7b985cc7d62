// Package psp models the AMD Platform Security Processor: the low-power
// ARM core that owns SEV key management, launch measurement, and
// attestation-report signing (paper §2.2, §2.4).
//
// Two properties of the real device carry the paper's results and are
// modeled faithfully:
//
//  1. Launch commands really do the work: LAUNCH_UPDATE_DATA hashes the
//     region into a SHA-256 digest chain *and* encrypts it in guest memory
//     under a per-guest AES key; reports are really signed (ECDSA P-384
//     standing in for the chip-unique VCEK) and verifiable offline.
//  2. The PSP is a single core shared by every guest on the host: all
//     command latencies are charged on one capacity-1 sim.Resource, which
//     serializes concurrent launches (the Fig. 12 bottleneck).
//
// The command state machine enforces the SEV API ordering: updates are
// only legal between LAUNCH_START and LAUNCH_FINISH, and reports are only
// issued for finished guests.
package psp

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// Errors returned by the command interface.
var (
	ErrState  = errors.New("psp: command illegal in current guest state")
	ErrPolicy = errors.New("psp: policy violation")
)

// State is a guest context's launch state.
type State int

// Launch states, in order.
const (
	StateLaunching State = iota // LAUNCH_START done; updates allowed
	StateRunning                // LAUNCH_FINISH done; updates rejected
	StateDead                   // decommissioned
)

// PSP is the platform security processor. One instance exists per host;
// all guests on the host share it.
type PSP struct {
	model costmodel.Model
	res   *sim.Resource
	rng   *rand.Rand // guest keys, in launch order
	// Report signatures draw from a stream of their own, made on the first
	// report: ecdsa.Sign reads a varying number of bytes from its reader.
	sigSeed int64
	sigRNG  *rand.Rand

	signKey  *ecdsa.PrivateKey
	nextASID uint32

	// CommandCount tallies completed commands, for utilization reporting.
	CommandCount uint64

	// PreEncryptTamper, when set, runs immediately before each
	// LAUNCH_UPDATE_DATA measures and encrypts [gpa, gpa+n): a hostile
	// host scribbling on a launch page in the window between staging and
	// pre-encryption. Whatever it writes is what the PSP measures — the
	// digest stays honest about the (tampered) contents, which is exactly
	// how the real device behaves. Installed only by the chaos engine;
	// production hosts leave it nil.
	PreEncryptTamper func(mem *guestmem.Memory, gpa uint64, n int)

	// DigestTamper, when set, transforms the final launch digest at
	// LAUNCH_FINISH — a hostile-firmware model (e.g. digest truncation)
	// used by the chaos engine to prove downstream digest comparisons
	// actually bite. Production hosts leave it nil.
	DigestTamper func([32]byte) [32]byte
}

// New creates a PSP whose identity, its VCEK alone, derives from seed; the
// key authority issues its chain (kbs.Authority.Enroll).
func New(model costmodel.Model, seed int64) *PSP {
	rng := rand.New(rand.NewSource(seed))
	key := genKey(rng)
	return &PSP{
		model:    model,
		res:      sim.NewResource("psp", 1),
		rng:      rng,
		sigSeed:  rng.Int63(),
		signKey:  key,
		nextASID: 1,
	}
}

// Resource exposes the PSP's single service slot (for utilization stats).
func (p *PSP) Resource() *sim.Resource { return p.res }

// VerificationKey returns the public half of the signing key — what AMD
// publishes as the VCEK certificate chain. Guest owners verify reports
// against it.
func (p *PSP) VerificationKey() *ecdsa.PublicKey { return &p.signKey.PublicKey }

// GuestContext is one guest's launch context on the PSP.
type GuestContext struct {
	psp    *PSP
	mem    *guestmem.Memory
	level  sev.Level
	policy sev.Policy
	asid   uint32
	state  State

	digest  [32]byte // running launch digest
	updates int
}

// LaunchStart allocates an ASID, derives a fresh memory-encryption key,
// installs it in the guest's memory controller slot, and opens the launch
// context (Fig. 1, step 1).
func (p *PSP) LaunchStart(proc *sim.Proc, mem *guestmem.Memory, level sev.Level, policy sev.Policy) (*GuestContext, error) {
	if !level.Encrypted() {
		return nil, fmt.Errorf("%w: LAUNCH_START for non-SEV guest", ErrState)
	}
	if policy.ESRequired && level < sev.ES {
		return nil, fmt.Errorf("%w: policy requires SEV-ES, guest level %v", ErrPolicy, level)
	}
	p.run(proc, p.model.PSPLaunchStart, "LAUNCH_START")

	key := make([]byte, 16)
	p.rng.Read(key)
	asid := p.nextASID
	p.nextASID++
	mem.SetKey(key, asid)
	ctx := &GuestContext{
		psp:    p,
		mem:    mem,
		level:  level,
		policy: policy,
		asid:   asid,
		state:  StateLaunching,
	}
	ctx.digest = InitialDigest(policy, level)
	return ctx, nil
}

// InitialDigest seeds the launch digest chain with the guest policy and
// feature level, so a host that launches with a weakened policy produces a
// different measurement. The guest owner's expected-digest tool
// (internal/measure) starts from the same value.
func InitialDigest(policy sev.Policy, level sev.Level) [32]byte {
	const tag = "SEV-LAUNCH-START"
	var buf [len(tag) + 8 + 1]byte
	copy(buf[:], tag)
	binary.LittleEndian.PutUint64(buf[len(tag):], policy.Encode())
	buf[len(tag)+8] = byte(level)
	return sha256.Sum256(buf[:])
}

// run executes one command body of duration d on the shared PSP core.
// cmd is the SEV command mnemonic; the scheduler tracer shows it as a
// named service span on the "psp" track, so a trace of N concurrent
// launches renders the Fig. 12 serialization command by command.
// proc may be nil for untimed unit tests.
func (p *PSP) run(proc *sim.Proc, d time.Duration, cmd string) {
	p.CommandCount++
	if proc == nil {
		return
	}
	p.res.UseLabeled(proc, d, cmd)
}

// ASID returns the guest's address-space identifier.
func (ctx *GuestContext) ASID() uint32 { return ctx.asid }

// State returns the context's launch state.
func (ctx *GuestContext) State() State { return ctx.state }

// Digest returns the current launch digest.
func (ctx *GuestContext) Digest() [32]byte { return ctx.digest }

// LaunchUpdateData measures and encrypts [gpa, gpa+n): the region's plain
// text is hashed into the launch digest, then the pages flip to private
// under the guest key (Fig. 1 step 2; pre-encryption throughout the
// paper). Under SNP the pages come out assigned+validated.
func (ctx *GuestContext) LaunchUpdateData(proc *sim.Proc, gpa uint64, n int, pt sev.PageType) error {
	if ctx.state != StateLaunching {
		return fmt.Errorf("%w: LAUNCH_UPDATE_DATA in state %d", ErrState, ctx.state)
	}
	if ctx.psp.PreEncryptTamper != nil {
		ctx.psp.PreEncryptTamper(ctx.mem, gpa, n)
	}
	ctx.psp.run(proc, ctx.psp.model.PreEncrypt(n), "LAUNCH_UPDATE_DATA")
	if err := ctx.mem.LaunchUpdateFlip(gpa, n); err != nil {
		return err
	}
	// Hash the region in place: PlainRangeDigest streams the same bytes
	// LaunchUpdate used to copy out (or hits the artifact memo table),
	// so the digest chain is unchanged while the n-byte copy is gone.
	content, err := ctx.mem.PlainRangeDigest(gpa, n)
	if err != nil {
		return err
	}
	ctx.digest = ExtendDigestContent(ctx.digest, pt, gpa, n, content)
	ctx.updates++
	return nil
}

// LaunchUpdateVMSA measures and protects the vCPU register state (one
// 4 KiB VMSA page) for SEV-ES and SNP guests.
func (ctx *GuestContext) LaunchUpdateVMSA(proc *sim.Proc, gpa uint64) error {
	if ctx.level < sev.ES {
		return fmt.Errorf("%w: VMSA update for level %v", ErrState, ctx.level)
	}
	return ctx.LaunchUpdateData(proc, gpa, guestmem.PageSize, sev.PageVMSA)
}

// LaunchFinish seals the launch context: the digest becomes final and
// further updates are rejected (Fig. 1 step 3) — the property that stops
// the host from measuring extra state after attestation.
func (ctx *GuestContext) LaunchFinish(proc *sim.Proc) ([32]byte, error) {
	if ctx.state != StateLaunching {
		return [32]byte{}, fmt.Errorf("%w: LAUNCH_FINISH in state %d", ErrState, ctx.state)
	}
	ctx.psp.run(proc, ctx.psp.model.PSPLaunchFinish, "LAUNCH_FINISH")
	ctx.state = StateRunning
	if ctx.psp.DigestTamper != nil {
		ctx.digest = ctx.psp.DigestTamper(ctx.digest)
	}
	return ctx.digest, nil
}

// Decommission releases the context (guest teardown).
func (ctx *GuestContext) Decommission() { ctx.state = StateDead }

// ExtendDigestContent appends one measured region, of n bytes whose
// SHA-256 is content, to a launch digest:
// digest' = SHA256(digest ‖ type ‖ gpa ‖ len ‖ content), the shape of the
// SNP ABI's page-info chaining. internal/measure recomputes the same chain
// host-side; the two must agree bit for bit. It is the serial half of the
// parallel measurement pipeline: content hashes may be produced in any order
// across the hostwork pool (or come from the artifact memo table), but
// the chain itself is folded one region at a time, in region order, so
// the result is bit-identical to the fully serial computation.
func ExtendDigestContent(digest [32]byte, pt sev.PageType, gpa uint64, n int, content [32]byte) [32]byte {
	var buf [32 + 1 + 16 + 32]byte
	copy(buf[0:32], digest[:])
	buf[32] = byte(pt)
	binary.LittleEndian.PutUint64(buf[33:], gpa)
	binary.LittleEndian.PutUint64(buf[41:], uint64(n))
	copy(buf[49:], content[:])
	return sha256.Sum256(buf[:])
}

// Report is the attestation report the PSP places in guest memory
// (Fig. 1 steps 5-6). Serialized with Marshal for signing and transport.
type Report struct {
	Version     uint32
	Policy      uint64
	Level       sev.Level
	ASID        uint32
	Measurement [32]byte
	ReportData  [64]byte // guest-chosen (holds the guest's public key hash)
	SigR, SigS  *big.Int
}

// reportBody serializes the signed portion.
func (r *Report) reportBody() []byte {
	out := make([]byte, 4+8+1+4+32+64)
	le := binary.LittleEndian
	le.PutUint32(out[0:], r.Version)
	le.PutUint64(out[4:], r.Policy)
	out[12] = byte(r.Level)
	le.PutUint32(out[13:], r.ASID)
	copy(out[17:], r.Measurement[:])
	copy(out[49:], r.ReportData[:])
	return out
}

// Marshal serializes the full report including the signature.
func (r *Report) Marshal() []byte {
	body := r.reportBody()
	sig := make([]byte, 96) // two 48-byte big-endian field elements
	r.SigR.FillBytes(sig[:48])
	r.SigS.FillBytes(sig[48:])
	return append(body, sig...)
}

// UnmarshalReport parses Marshal's output. The wire format is fixed-size;
// truncated and oversized input are both rejected before any field is
// decoded.
func UnmarshalReport(b []byte) (*Report, error) {
	const bodyLen = 4 + 8 + 1 + 4 + 32 + 64
	if len(b) < bodyLen+96 {
		return nil, fmt.Errorf("psp: report truncated: %d bytes, want %d", len(b), bodyLen+96)
	}
	if len(b) > bodyLen+96 {
		return nil, fmt.Errorf("psp: report oversized: %d bytes, want %d", len(b), bodyLen+96)
	}
	le := binary.LittleEndian
	r := &Report{
		Version: le.Uint32(b[0:]),
		Policy:  le.Uint64(b[4:]),
		Level:   sev.Level(b[12]),
		ASID:    le.Uint32(b[13:]),
	}
	copy(r.Measurement[:], b[17:])
	copy(r.ReportData[:], b[49:])
	r.SigR = new(big.Int).SetBytes(b[bodyLen : bodyLen+48])
	r.SigS = new(big.Int).SetBytes(b[bodyLen+48:])
	return r, nil
}

// BuildReport generates and signs an attestation report for a finished
// guest. reportData is chosen by the guest (it binds the guest's ephemeral
// public key to the report).
func (ctx *GuestContext) BuildReport(proc *sim.Proc, reportData [64]byte) (*Report, error) {
	if ctx.state != StateRunning {
		return nil, fmt.Errorf("%w: report for guest in state %d", ErrState, ctx.state)
	}
	ctx.psp.run(proc, ctx.psp.model.PSPReportGen, "REPORT_GEN")
	r := &Report{
		Version:     2,
		Policy:      ctx.policy.Encode(),
		Level:       ctx.level,
		ASID:        ctx.asid,
		Measurement: ctx.digest,
		ReportData:  reportData,
	}
	if p := ctx.psp; p.sigRNG == nil {
		p.sigRNG = rand.New(rand.NewSource(p.sigSeed))
	}
	if err := r.Sign(ctx.psp.sigRNG, ctx.psp.signKey); err != nil {
		return nil, err
	}
	return r, nil
}

// Sign signs the report body with the given platform key, installing the
// signature. The PSP signs its own reports in BuildReport; the fault
// layer re-signs reports under alternate platform identities to model
// stale-TCB and revoked-VCEK platforms (internal/kbs).
func (r *Report) Sign(rng io.Reader, key *ecdsa.PrivateKey) error {
	sum := sha512.Sum384(r.reportBody())
	sigR, sigS, err := ecdsa.Sign(rng, key, sum[:])
	if err != nil {
		return fmt.Errorf("psp: signing report: %w", err)
	}
	r.SigR, r.SigS = sigR, sigS
	return nil
}

// VerifyReport checks a report's signature against the platform
// verification key. It does NOT check the measurement — that is the guest
// owner's job (internal/attest).
func VerifyReport(pub *ecdsa.PublicKey, r *Report) error {
	if r.SigR == nil || r.SigS == nil {
		return errors.New("psp: report is unsigned")
	}
	sum := sha512.Sum384(r.reportBody())
	if !ecdsa.Verify(pub, sum[:], r.SigR, r.SigS) {
		return errors.New("psp: report signature invalid")
	}
	return nil
}

// LaunchStartFork opens a launch context for a guest forked from a
// finished donor: the donor's key, ASID, *and launch digest* carry over,
// so the fork attests with the exact measurement of its parent — the
// launch-digest provenance requirement for snapshot-fork warm boot. This
// is the paper's §6.2 near-term idea for easing the PSP bottleneck and
// enabling warm start: both guests' policy must permit key sharing, and
// the relaxed policy is part of the measurement and the attestation
// report, so guest owners see the weakened trust model. The command is
// cheaper than LAUNCH_START because no key is derived, and the guest
// shares the donor's expanded key (guestmem.Memory.ShareKey). The digest
// is inherited rather than re-derived because the forked memory is, page
// for page, the measured parent image (guestmem.AdoptFork verifies the
// fork root before any page goes live).
//
// The donor must be a finished launch (StateRunning) with the same
// feature level and policy — a fork may not relax what its parent
// measured, and what the donor's LAUNCH_START checked of that pair holds
// for the fork. A donor whose policy forbids key sharing is refused
// before anything else is compared, so its refusal names key sharing.
func (p *PSP) LaunchStartFork(proc *sim.Proc, mem *guestmem.Memory, donor *GuestContext, level sev.Level, policy sev.Policy) (*GuestContext, error) {
	if donor.policy.NoKeySharing {
		return nil, fmt.Errorf("%w: key sharing forbidden by policy", ErrPolicy)
	}
	if donor.state != StateRunning {
		return nil, fmt.Errorf("%w: fork from donor in state %d", ErrState, donor.state)
	}
	if level != donor.level {
		return nil, fmt.Errorf("%w: fork level %v != donor level %v", ErrPolicy, level, donor.level)
	}
	if policy != donor.policy {
		return nil, fmt.Errorf("%w: fork policy differs from donor policy", ErrPolicy)
	}
	p.run(proc, p.model.PSPLaunchStart/2, "LAUNCH_START_SHARED")

	mem.ShareKey(donor.mem)
	return &GuestContext{
		psp:    p,
		mem:    mem,
		level:  level,
		policy: policy,
		asid:   donor.asid, // shared key == shared ASID slot
		state:  StateLaunching,
		digest: donor.digest,
	}, nil
}
