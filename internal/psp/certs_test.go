package psp

import (
	"crypto/ecdsa"
	"math/rand"
	"testing"

	"github.com/severifast/severifast/internal/costmodel"
)

// buildChain issues a self-signed ARK, an ASK under it and a certificate
// for vcek, all from rng: a chain for the tests of chains themselves. A PSP
// holds no chain; internal/kbs's Authority issues the chain a relying party
// checks.
func buildChain(rng *rand.Rand, vcek *ecdsa.PrivateKey) (*Chain, *ecdsa.PublicKey) {
	ark := genKey(rng)
	ask := genKey(rng)
	sign := func(c *Cert, issuer *ecdsa.PrivateKey) {
		if err := SignCert(c, issuer, rng); err != nil {
			panic(err.Error())
		}
	}
	ch := &Chain{
		ARK:  Cert{Subject: "ARK", Issuer: "ARK", PubX: ark.PublicKey.X, PubY: ark.PublicKey.Y},
		ASK:  Cert{Subject: "ASK", Issuer: "ARK", PubX: ask.PublicKey.X, PubY: ask.PublicKey.Y},
		VCEK: Cert{Subject: "VCEK", Issuer: "ASK", PubX: vcek.PublicKey.X, PubY: vcek.PublicKey.Y},
	}
	sign(&ch.ARK, ark)
	sign(&ch.ASK, ark)
	sign(&ch.VCEK, ask)
	return ch, &ark.PublicKey
}

// platformChain is seed's PSP with a chain issued for its VCEK under a
// root of its own, and that root.
func platformChain(seed int64) (*PSP, *Chain, *ecdsa.PublicKey) {
	p := New(costmodel.Unit(), seed)
	ch, ark := buildChain(rand.New(rand.NewSource(^seed)), p.signKey)
	return p, ch, ark
}

func TestChainVerifies(t *testing.T) {
	_, ch, ark := platformChain(1)
	if err := ch.Verify(ark); err != nil {
		t.Fatal(err)
	}
}

func TestChainVCEKMatchesSigningKey(t *testing.T) {
	p, ch, _ := platformChain(1)
	vcek := ch.VCEK.Key()
	pub := p.VerificationKey()
	if vcek.X.Cmp(pub.X) != 0 || vcek.Y.Cmp(pub.Y) != 0 {
		t.Fatal("VCEK certificate does not carry the report-signing key")
	}
	_, ctx := newGuest(t, p)
	if _, err := ctx.LaunchFinish(nil); err != nil {
		t.Fatal(err)
	}
	r, err := ctx.BuildReport(nil, [64]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReport(vcek, r); err != nil {
		t.Fatalf("report does not verify under the certified VCEK: %v", err)
	}
}

func TestChainMarshalRoundTrip(t *testing.T) {
	_, ch, ark := platformChain(1)
	got, err := UnmarshalChain(ch.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(ark); err != nil {
		t.Fatalf("round-tripped chain invalid: %v", err)
	}
}

func TestChainRejectsForeignRoot(t *testing.T) {
	_, _, arkA := platformChain(1)
	_, chB, _ := platformChain(2)
	// Platform B's chain against platform A's pinned root: must fail —
	// this is what stops a malicious host from minting its own "AMD" keys.
	if err := chB.Verify(arkA); err == nil {
		t.Fatal("foreign chain verified against the pinned ARK")
	}
}

func TestChainRejectsSwappedVCEK(t *testing.T) {
	_, chA, arkA := platformChain(1)
	_, chB, _ := platformChain(2)
	frank := *chA
	frank.VCEK = chB.VCEK // VCEK from another platform's ASK
	if err := frank.Verify(arkA); err == nil {
		t.Fatal("frankenstein chain verified")
	}
}

func TestChainRejectsTamperedCert(t *testing.T) {
	_, ch, ark := platformChain(1)
	raw := ch.Marshal()
	for _, idx := range []int{8, 60, len(raw) / 2, len(raw) - 10} {
		c := append([]byte(nil), raw...)
		c[idx] ^= 0xFF
		ch, err := UnmarshalChain(c)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if err := ch.Verify(ark); err == nil {
			t.Fatalf("tampered chain (byte %d) verified", idx)
		}
	}
}

func TestUnmarshalChainRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1, 2, 3}, make([]byte, 200)} {
		if _, err := UnmarshalChain(b); err == nil {
			t.Fatal("garbage chain parsed")
		}
	}
}

func TestChainDeterministicPerSeed(t *testing.T) {
	a1 := New(costmodel.Unit(), 7)
	a2 := New(costmodel.Unit(), 7)
	if a1.VerificationKey().X.Cmp(a2.VerificationKey().X) != 0 {
		t.Fatal("same seed produced different platform identity")
	}
}
