package policy

// Canonical claim encoding. The layout follows internal/psp's certificate
// idiom: length-prefixed strings bounded before allocation, fixed-width
// big.Int field elements, ECDSA P-384 over SHA-384 of the body. The
// encoding is canonical — Marshal(Unmarshal(b)) == b for every accepted b
// — which is what makes the signature meaningful (there is exactly one
// byte string a signature speaks for) and what the fuzz target pins.

import (
	"crypto/ecdsa"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"

	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sim"
)

// errWire rejects malformed claim bytes.
var errWire = errors.New("policy: claim wire invalid")

// claimMagic opens every encoded claim; the version byte follows.
var claimMagic = [4]byte{'S', 'F', 'P', 'C'}

const claimWireVersion = 1

// maxClaimWire bounds an encoded claim: magic+version, six length-
// prefixed strings (255 bytes each), the TCB floor, two instants, and
// the 96-byte signature. Larger input is rejected before parsing.
const maxClaimWire = 5 + 6*(1+255) + 8 + 16 + 96

// Marshal serializes the claim with its signature (zero bytes when
// unsigned).
func (c *Claim) Marshal() []byte {
	out := c.body()
	var fe [48]byte
	sigInt(c.SigR).FillBytes(fe[:])
	out = append(out, fe[:]...)
	sigInt(c.SigS).FillBytes(fe[:])
	out = append(out, fe[:]...)
	return out
}

func sigInt(x *big.Int) *big.Int {
	if x == nil {
		return new(big.Int)
	}
	return x
}

// body is the signed portion: everything except SigR/SigS.
func (c *Claim) body() []byte {
	out := make([]byte, 0, 128)
	out = append(out, claimMagic[:]...)
	out = append(out, claimWireVersion)
	for _, s := range []string{c.ID, string(c.Kind), c.Scope, c.Subject, c.Note, c.Issuer} {
		out = append(out, byte(len(s)))
		out = append(out, s...)
	}
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], c.MinTCB)
	out = append(out, u[:]...)
	binary.LittleEndian.PutUint64(u[:], uint64(c.NotBefore))
	out = append(out, u[:]...)
	binary.LittleEndian.PutUint64(u[:], uint64(c.NotAfter))
	out = append(out, u[:]...)
	return out
}

// UnmarshalClaim parses Marshal's output. Every string length is checked
// against the remaining bytes before slicing, trailing bytes are
// rejected, and the whole input is bounded up front, so arbitrary
// host-controlled bytes fail fast instead of allocating.
func UnmarshalClaim(b []byte) (*Claim, error) {
	if len(b) > maxClaimWire {
		return nil, fmt.Errorf("%w: %d bytes exceeds maximum %d", errWire, len(b), maxClaimWire)
	}
	if len(b) < 5 || [4]byte(b[:4]) != claimMagic {
		return nil, fmt.Errorf("%w: bad magic", errWire)
	}
	if b[4] != claimWireVersion {
		return nil, fmt.Errorf("%w: version %d", errWire, b[4])
	}
	rest := b[5:]
	var fields [6]string
	for i := range fields {
		if len(rest) < 1 {
			return nil, fmt.Errorf("%w: truncated string length", errWire)
		}
		n := int(rest[0])
		if 1+n > len(rest) {
			return nil, fmt.Errorf("%w: string length %d exceeds remaining %d bytes", errWire, n, len(rest)-1)
		}
		fields[i] = string(rest[1 : 1+n])
		rest = rest[1+n:]
	}
	if len(rest) != 24+96 {
		return nil, fmt.Errorf("%w: fixed tail is %d bytes, want %d", errWire, len(rest), 24+96)
	}
	c := &Claim{
		ID:        fields[0],
		Kind:      Kind(fields[1]),
		Scope:     fields[2],
		Subject:   fields[3],
		Note:      fields[4],
		Issuer:    fields[5],
		MinTCB:    binary.LittleEndian.Uint64(rest[0:8]),
		NotBefore: sim.Time(binary.LittleEndian.Uint64(rest[8:16])),
		NotAfter:  sim.Time(binary.LittleEndian.Uint64(rest[16:24])),
		SigR:      new(big.Int).SetBytes(rest[24:72]),
		SigS:      new(big.Int).SetBytes(rest[72:120]),
	}
	return c, nil
}

// Signer is one claim issuer: its ID, its P-384 key, and the private
// stream its signatures draw from. ECDSA signature bytes are not
// reproducible even under a seeded reader (the stdlib mixes in extra
// entropy and consumes a nondeterministic number of bytes), so the stream
// is shared with no other deterministic draw, signatures never reach
// golden-pinned output, and the mutex serializes every writer signing as
// this issuer.
type Signer struct {
	ID string

	mu  sync.Mutex
	key *ecdsa.PrivateKey
	rng *rand.Rand
}

// NewSigner derives a signer's key from seed; its signatures draw from
// the rest of that stream.
func NewSigner(id string, seed int64) *Signer {
	rng := rand.New(rand.NewSource(seed))
	return &Signer{ID: id, key: psp.DeriveKey(rng), rng: rng}
}

// sign returns c issued by s: Issuer set to s.ID and the signature over
// the canonical body installed.
func (s *Signer) sign(c Claim) (Claim, error) {
	c.Issuer = s.ID
	sum := sha512.Sum384(c.body())
	s.mu.Lock()
	r, sig, err := ecdsa.Sign(s.rng, s.key, sum[:])
	s.mu.Unlock()
	if err != nil {
		return c, fmt.Errorf("policy: claim signing: %w", err)
	}
	c.SigR, c.SigS = r, sig
	return c, nil
}

// verifyClaim checks c's signature under the issuer's public key.
func verifyClaim(c *Claim, issuer *ecdsa.PublicKey) bool {
	if c.SigR == nil || c.SigS == nil {
		return false
	}
	sum := sha512.Sum384(c.body())
	return ecdsa.Verify(issuer, sum[:], c.SigR, c.SigS)
}
