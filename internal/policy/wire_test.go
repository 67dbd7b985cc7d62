package policy

import (
	"bytes"
	"testing"
)

func sampleClaim(t *testing.T) Claim {
	t.Helper()
	c, err := NewSigner("ops-root", 7).sign(Claim{
		ID:        "ref-abc123",
		Kind:      KindMeasurement,
		Scope:     "t0",
		Subject:   "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff",
		MinTCB:    testTCB,
		NotBefore: ms(5),
		NotAfter:  ms(500),
		Note:      "img-0 cold",
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClaimWireRoundTrip(t *testing.T) {
	c := sampleClaim(t)
	blob := c.Marshal()
	got, err := UnmarshalClaim(blob)
	if err != nil {
		t.Fatalf("UnmarshalClaim: %v", err)
	}
	if got.ID != c.ID || got.Kind != c.Kind || got.Scope != c.Scope || got.Subject != c.Subject ||
		got.MinTCB != c.MinTCB || got.NotBefore != c.NotBefore || got.NotAfter != c.NotAfter ||
		got.Note != c.Note || got.Issuer != c.Issuer ||
		got.SigR.Cmp(c.SigR) != 0 || got.SigS.Cmp(c.SigS) != 0 {
		t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", got, c)
	}
	if !bytes.Equal(got.Marshal(), blob) {
		t.Fatal("re-marshal is not a fixpoint")
	}
}

func TestClaimWireUnsigned(t *testing.T) {
	c := &Claim{ID: "x", Kind: KindPlatform, Scope: "*", Subject: "*"}
	got, err := UnmarshalClaim(c.Marshal())
	if err != nil {
		t.Fatalf("unsigned claim must round-trip: %v", err)
	}
	if got.SigR.Sign() != 0 || got.SigS.Sign() != 0 {
		t.Fatal("unsigned claim decoded with a signature")
	}
}

func TestClaimWireRejects(t *testing.T) {
	sample := sampleClaim(t)
	valid := sample.Marshal()
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("NOPE"), valid[4:]...),
		"bad version":  append([]byte("SFPC\x07"), valid[5:]...),
		"truncated":    valid[:len(valid)-1],
		"extended":     append(append([]byte{}, valid...), 0),
		"oversized":    make([]byte, maxClaimWire+1),
		"short string": valid[:6],
	}
	for name, blob := range cases {
		if _, err := UnmarshalClaim(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSignatureCoversEveryField(t *testing.T) {
	key := &NewSigner("ops-root", 7).key.PublicKey
	base := sampleClaim(t)
	if !verifyClaim(&base, key) {
		t.Fatal("baseline claim must verify")
	}
	mutations := map[string]func(*Claim){
		"id":        func(c *Claim) { c.ID = "other" },
		"kind":      func(c *Claim) { c.Kind = KindPlatform },
		"scope":     func(c *Claim) { c.Scope = "t1" },
		"subject":   func(c *Claim) { c.Subject = "ff" },
		"mintcb":    func(c *Claim) { c.MinTCB++ },
		"notbefore": func(c *Claim) { c.NotBefore++ },
		"notafter":  func(c *Claim) { c.NotAfter++ },
		"note":      func(c *Claim) { c.Note = "z" },
		"issuer":    func(c *Claim) { c.Issuer = "mallory" },
	}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		if verifyClaim(&c, key) {
			t.Errorf("mutating %s did not break the signature", name)
		}
	}
}
