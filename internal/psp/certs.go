package psp

// AMD's attestation trust does not hand the guest owner a bare public key:
// reports are signed by the chip-unique VCEK, whose certificate is signed
// by the AMD SEV signing key (ASK), which is signed by the self-signed AMD
// root key (ARK). Guest owners validate the whole chain against the
// pinned ARK (the paper's attestation flow uses AMD's sev-guest tooling,
// which does exactly this). This file models that chain with real ECDSA
// P-384 signatures over a compact certificate encoding. A PSP holds only its
// VCEK: the chain is internal/kbs's, as AMD's comes from AMD's key server.

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
)

// Cert is one link of the chain: a named public key signed by its issuer.
// VCEK certificates issued by a key authority additionally carry the chip
// identity and the platform TCB version the key was derived for (AMD's
// VCEK embeds both; relying parties enforce minimum-TCB policy on them).
type Cert struct {
	Subject string // "ARK", "ASK", or "VCEK"
	Issuer  string
	PubX    *big.Int
	PubY    *big.Int
	SigR    *big.Int // issuer's signature over the body
	SigS    *big.Int

	// ChipID names the physical platform the VCEK belongs to; empty for
	// ARK/ASK and for legacy chains minted before TCB versioning.
	ChipID string
	// TCBVersion is the encoded TCB the VCEK was derived at (kbs.TCB).
	TCBVersion uint64
}

// maxCertBody bounds a certificate body: two length-prefixed names (255
// bytes each), the 96-byte public key, and the optional chip/TCB
// extension. Anything larger is rejected before allocation.
const maxCertBody = 2 + 255 + 255 + 96 + 1 + 255 + 8

// maxChainLen bounds a marshaled chain (three certs with signatures).
const maxChainLen = 3 * (4 + maxCertBody + 96)

// Chain is [VCEK, ASK, ARK].
type Chain struct {
	VCEK Cert
	ASK  Cert
	ARK  Cert
}

// Errors.
var (
	ErrChain = errors.New("psp: certificate chain invalid")
)

func (c *Cert) body() []byte {
	out := make([]byte, 0, 16+96)
	out = append(out, byte(len(c.Subject)))
	out = append(out, c.Subject...)
	out = append(out, byte(len(c.Issuer)))
	out = append(out, c.Issuer...)
	var fe [48]byte
	c.PubX.FillBytes(fe[:])
	out = append(out, fe[:]...)
	c.PubY.FillBytes(fe[:])
	out = append(out, fe[:]...)
	// Chip/TCB extension, emitted only when set so legacy chains keep
	// their exact byte layout (and signatures stay valid).
	if c.ChipID != "" || c.TCBVersion != 0 {
		out = append(out, byte(len(c.ChipID)))
		out = append(out, c.ChipID...)
		var tcb [8]byte
		binary.LittleEndian.PutUint64(tcb[:], c.TCBVersion)
		out = append(out, tcb[:]...)
	}
	return out
}

// Marshal serializes the certificate with its signature.
func (c *Cert) Marshal() []byte {
	body := c.body()
	out := make([]byte, 0, len(body)+100)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(body)))
	out = append(out, n[:]...)
	out = append(out, body...)
	var fe [48]byte
	c.SigR.FillBytes(fe[:])
	out = append(out, fe[:]...)
	c.SigS.FillBytes(fe[:])
	out = append(out, fe[:]...)
	return out
}

// UnmarshalCert parses Marshal's output, returning the remaining bytes.
// The declared body length is bounded before any allocation, so oversized
// or truncated host-controlled input fails fast instead of allocating.
func UnmarshalCert(b []byte) (Cert, []byte, error) {
	var c Cert
	if len(b) < 4 {
		return c, nil, fmt.Errorf("%w: truncated length", ErrChain)
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 2 || n > maxCertBody {
		return c, nil, fmt.Errorf("%w: body length %d outside [2, %d]", ErrChain, n, maxCertBody)
	}
	if n > len(b) {
		return c, nil, fmt.Errorf("%w: body length %d exceeds remaining %d bytes", ErrChain, n, len(b))
	}
	body := b[:n]
	rest := b[n:]
	sl := int(body[0])
	if 1+sl+1 > len(body) {
		return c, nil, fmt.Errorf("%w: bad subject", ErrChain)
	}
	c.Subject = string(body[1 : 1+sl])
	il := int(body[1+sl])
	if 2+sl+il+96 > len(body) {
		return c, nil, fmt.Errorf("%w: bad issuer/key layout", ErrChain)
	}
	c.Issuer = string(body[2+sl : 2+sl+il])
	c.PubX = new(big.Int).SetBytes(body[2+sl+il : 2+sl+il+48])
	c.PubY = new(big.Int).SetBytes(body[2+sl+il+48 : 2+sl+il+96])
	// Optional chip/TCB extension: either absent (legacy cert) or exactly
	// chipLen|chip|8-byte TCB — partial extensions are rejected.
	ext := body[2+sl+il+96:]
	if len(ext) > 0 {
		cl := int(ext[0])
		if 1+cl+8 != len(ext) {
			return c, nil, fmt.Errorf("%w: bad chip/TCB extension layout", ErrChain)
		}
		c.ChipID = string(ext[1 : 1+cl])
		c.TCBVersion = binary.LittleEndian.Uint64(ext[1+cl:])
	}
	if len(rest) < 96 {
		return c, nil, fmt.Errorf("%w: truncated signature", ErrChain)
	}
	c.SigR = new(big.Int).SetBytes(rest[:48])
	c.SigS = new(big.Int).SetBytes(rest[48:96])
	return c, rest[96:], nil
}

// Key returns the certificate's public key.
func (c *Cert) Key() *ecdsa.PublicKey {
	return &ecdsa.PublicKey{Curve: elliptic.P384(), X: c.PubX, Y: c.PubY}
}

// verifiedBy checks c's signature under issuer's key.
func (c *Cert) verifiedBy(issuer *ecdsa.PublicKey) bool {
	sum := sha512.Sum384(c.body())
	return ecdsa.Verify(issuer, sum[:], c.SigR, c.SigS)
}

// Marshal serializes the full chain, VCEK first.
func (ch *Chain) Marshal() []byte {
	out := ch.VCEK.Marshal()
	out = append(out, ch.ASK.Marshal()...)
	out = append(out, ch.ARK.Marshal()...)
	return out
}

// UnmarshalChain parses Marshal's output. Input larger than any valid
// chain is rejected up front.
func UnmarshalChain(b []byte) (*Chain, error) {
	if len(b) > maxChainLen {
		return nil, fmt.Errorf("%w: %d bytes exceeds maximum chain size %d", ErrChain, len(b), maxChainLen)
	}
	vcek, rest, err := UnmarshalCert(b)
	if err != nil {
		return nil, err
	}
	ask, rest, err := UnmarshalCert(rest)
	if err != nil {
		return nil, err
	}
	ark, rest, err := UnmarshalCert(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrChain)
	}
	return &Chain{VCEK: vcek, ASK: ask, ARK: ark}, nil
}

// Verify walks the chain down from a pinned ARK public key: the ARK must
// match the pin and self-verify, the ASK must be ARK-signed, the VCEK
// ASK-signed, with the expected subject/issuer names at every link.
func (ch *Chain) Verify(pinnedARK *ecdsa.PublicKey) error {
	if ch.ARK.Subject != "ARK" || ch.ARK.Issuer != "ARK" {
		return fmt.Errorf("%w: root naming", ErrChain)
	}
	if ch.ARK.PubX.Cmp(pinnedARK.X) != 0 || ch.ARK.PubY.Cmp(pinnedARK.Y) != 0 {
		return fmt.Errorf("%w: ARK does not match the pinned AMD root", ErrChain)
	}
	if !ch.ARK.verifiedBy(pinnedARK) {
		return fmt.Errorf("%w: ARK self-signature", ErrChain)
	}
	if ch.ASK.Subject != "ASK" || ch.ASK.Issuer != "ARK" {
		return fmt.Errorf("%w: ASK naming", ErrChain)
	}
	if !ch.ASK.verifiedBy(ch.ARK.Key()) {
		return fmt.Errorf("%w: ASK signature", ErrChain)
	}
	if ch.VCEK.Subject != "VCEK" || ch.VCEK.Issuer != "ASK" {
		return fmt.Errorf("%w: VCEK naming", ErrChain)
	}
	if !ch.VCEK.verifiedBy(ch.ASK.Key()) {
		return fmt.Errorf("%w: VCEK signature", ErrChain)
	}
	return nil
}

// SignCert signs c's body with the issuer key, installing the signature.
func SignCert(c *Cert, issuer *ecdsa.PrivateKey, rng io.Reader) error {
	sum := sha512.Sum384(c.body())
	r, s, err := ecdsa.Sign(rng, issuer, sum[:])
	if err != nil {
		return fmt.Errorf("psp: cert signing: %w", err)
	}
	c.SigR, c.SigS = r, s
	return nil
}

// DeriveKey derives a P-384 key deterministically from rng. Go's
// ecdsa.GenerateKey intentionally randomizes even under a seeded reader,
// but simulated platform and authority identities must be reproducible
// per seed, so the scalar is taken straight from the stream.
func DeriveKey(rng *rand.Rand) *ecdsa.PrivateKey { return genKey(rng) }

func genKey(rng *rand.Rand) *ecdsa.PrivateKey {
	curve := elliptic.P384()
	n := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	buf := make([]byte, 48)
	rng.Read(buf)
	d := new(big.Int).SetBytes(buf)
	d.Mod(d, n)
	d.Add(d, big.NewInt(1))
	priv := &ecdsa.PrivateKey{D: d}
	priv.PublicKey.Curve = curve
	priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(d.Bytes())
	return priv
}

// SetIdentity replaces the PSP's signing key — what a key authority
// enrollment does when it installs a derived, TCB-versioned VCEK on the
// platform (internal/kbs). Reports signed after the swap verify against the
// chain the authority issued for it.
func (p *PSP) SetIdentity(key *ecdsa.PrivateKey) { p.signKey = key }
