package policy

import (
	"bytes"
	"testing"
)

// FuzzClaimWire feeds hostile bytes to the claim parser — the bytes the
// key broker's /claim endpoint accepts from the network. It must never panic; the
// total input is bounded before any allocation; and whatever parses must
// round-trip losslessly, because the encoding is canonical: a signature
// speaks for exactly one byte string, so Marshal(Unmarshal(b)) == b for
// every accepted b.
func FuzzClaimWire(f *testing.F) {
	c, err := NewSigner("root", 11).sign(Claim{
		ID:        "ref-1",
		Kind:      KindMeasurement,
		Scope:     "t0",
		Subject:   "00ff",
		MinTCB:    testTCB,
		NotBefore: ms(1),
		NotAfter:  ms(99),
		Note:      "seed",
	})
	if err != nil {
		f.Fatal(err)
	}
	valid := c.Marshal()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:5])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0))
	for _, off := range []int{0, 4, 6, len(valid) - 97, len(valid) - 1} {
		mutated := append([]byte{}, valid...)
		mutated[off] ^= 0xFF
		f.Add(mutated)
	}
	f.Add((&Claim{Kind: KindDelegation, Scope: "*", Subject: "ops"}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		claim, err := UnmarshalClaim(data)
		if err != nil {
			return
		}
		out := claim.Marshal()
		if !bytes.Equal(out, data) {
			t.Fatalf("claim round trip not lossless:\n in  %x\n out %x", data, out)
		}
		again, err := UnmarshalClaim(out)
		if err != nil {
			t.Fatalf("re-unmarshal of marshaled claim failed: %v", err)
		}
		if again.ID != claim.ID || again.Kind != claim.Kind || again.Scope != claim.Scope ||
			again.Subject != claim.Subject || again.MinTCB != claim.MinTCB ||
			again.NotBefore != claim.NotBefore || again.NotAfter != claim.NotAfter ||
			again.Note != claim.Note || again.Issuer != claim.Issuer ||
			again.SigR.Cmp(claim.SigR) != 0 || again.SigS.Cmp(claim.SigS) != 0 {
			t.Fatal("re-unmarshaled claim differs")
		}
	})
}
