package kbs

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/rand"
	"sync"

	"github.com/severifast/severifast/internal/psp"
)

// Authority models AMD's key hierarchy from the relying party's point of
// view: a self-signed root (ARK), an intermediate signing key (ASK), and
// per-chip VCEKs derived from a secret seed mixed with the chip identity
// and its TCB version. Derivation is the load-bearing property — the same
// (chip, TCB) always yields the same key, a different TCB a different
// key — so a stale-firmware platform simply cannot produce a
// current-TCB signature.
//
// Everything is deterministic in the authority seed: two authorities
// built from the same seed mint byte-identical chains regardless of call
// order, which is what lets cmd/sevf-fleet and cmd/sevf-attestd agree on
// the hierarchy without sharing state, and what keeps same-seed fleet
// runs reproducible.
type Authority struct {
	seed int64
	root *ecdsa.PrivateKey // ARK
	sign *ecdsa.PrivateKey // ASK
	ark  psp.Cert
	ask  psp.Cert

	mu     sync.Mutex
	chains map[chainKey]*chainEntry
}

type chainKey struct {
	chipID string
	tcb    uint64
}

type chainEntry struct {
	key   *ecdsa.PrivateKey
	chain *psp.Chain
}

// NewAuthority derives the full hierarchy from seed.
func NewAuthority(seed int64) *Authority {
	rng := rand.New(rand.NewSource(seed))
	a := &Authority{
		seed:   seed,
		root:   psp.DeriveKey(rng),
		sign:   psp.DeriveKey(rng),
		chains: make(map[chainKey]*chainEntry),
	}
	a.ark = psp.Cert{
		Subject: "ARK", Issuer: "ARK",
		PubX: a.root.PublicKey.X, PubY: a.root.PublicKey.Y,
	}
	a.ask = psp.Cert{
		Subject: "ASK", Issuer: "ARK",
		PubX: a.sign.PublicKey.X, PubY: a.sign.PublicKey.Y,
	}
	// Construction order is fixed, so signing from the constructor rng
	// keeps the ARK/ASK certificates identical across same-seed builds.
	mustSign(&a.ark, a.root, rng)
	mustSign(&a.ask, a.root, rng)
	return a
}

func mustSign(c *psp.Cert, issuer *ecdsa.PrivateKey, rng io.Reader) {
	if err := psp.SignCert(c, issuer, rng); err != nil {
		panic("kbs: authority cert signing cannot fail: " + err.Error())
	}
}

// Root returns the public ARK — the single key relying parties pin.
func (a *Authority) Root() *ecdsa.PublicKey { return &a.root.PublicKey }

// derivedRNG builds a deterministic stream from the authority seed plus a
// domain label, the chip identity, and the TCB — the KDF standing in for
// the PSP's key-derivation hardware.
func (a *Authority) derivedRNG(label, chipID string, tcb TCB) *rand.Rand {
	h := sha256.New()
	h.Write([]byte(label))
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], uint64(a.seed))
	h.Write(s[:])
	h.Write([]byte(chipID))
	binary.LittleEndian.PutUint64(s[:], tcb.Encode())
	h.Write(s[:])
	sum := h.Sum(nil)
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(sum[:8]))))
}

// VCEKKey derives the signing key for one (chip, TCB) pair.
func (a *Authority) VCEKKey(chipID string, tcb TCB) *ecdsa.PrivateKey {
	return psp.DeriveKey(a.derivedRNG("kbs-vcek", chipID, tcb))
}

// ChainFor mints (and memoizes) the endorsement chain for a platform at a
// TCB. The VCEK signature uses a per-(chip,TCB) deterministic stream, not
// the shared constructor rng, so chain bytes never depend on the order in
// which chains are requested.
func (a *Authority) ChainFor(chipID string, tcb TCB) *psp.Chain {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.entryLocked(chipID, tcb).chain
}

func (a *Authority) entryLocked(chipID string, tcb TCB) *chainEntry {
	k := chainKey{chipID: chipID, tcb: tcb.Encode()}
	if e, ok := a.chains[k]; ok {
		return e
	}
	key := a.VCEKKey(chipID, tcb)
	vcek := psp.Cert{
		Subject: "VCEK", Issuer: "ASK",
		PubX: key.PublicKey.X, PubY: key.PublicKey.Y,
		ChipID: chipID, TCBVersion: tcb.Encode(),
	}
	mustSign(&vcek, a.sign, a.derivedRNG("kbs-sign", chipID, tcb))
	e := &chainEntry{
		key:   key,
		chain: &psp.Chain{VCEK: vcek, ASK: a.ask, ARK: a.ark},
	}
	a.chains[k] = e
	return e
}

// Enrollment records one platform's issued identity.
type Enrollment struct {
	ChipID    string
	TCB       TCB
	Authority *Authority
	Chain     *psp.Chain
}

// Enroll installs an authority-derived, TCB-versioned VCEK on a PSP,
// replacing its seed-derived one — the provisioning step a cloud
// operator performs once per host. Reports the PSP signs afterwards
// verify against ChainFor(chipID, tcb) under the authority root.
func (a *Authority) Enroll(p *psp.PSP, chipID string, tcb TCB) *Enrollment {
	a.mu.Lock()
	e := a.entryLocked(chipID, tcb)
	a.mu.Unlock()
	p.SetIdentity(e.key)
	return &Enrollment{ChipID: chipID, TCB: tcb, Authority: a, Chain: e.chain}
}
