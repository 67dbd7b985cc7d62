package psp

import (
	"testing"
	"testing/quick"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/sev"
)

func unitModel() costmodel.Model { return costmodel.Unit() }
func defaultPolicy() sev.Policy  { return sev.DefaultPolicy() }
func snpLevel() sev.Level        { return sev.SNP }

// Parsers that face host-controlled bytes must never panic, whatever the
// input. testing/quick drives them with arbitrary garbage.

func TestUnmarshalReportNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		_, _ = UnmarshalReport(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalChainNeverPanics(t *testing.T) {
	_, _, ark := platformChain(1)
	f := func(junk []byte) bool {
		ch, err := UnmarshalChain(junk)
		if err == nil && ch != nil {
			// If garbage parses structurally, verification must still be
			// callable without panicking.
			_ = ch.Verify(ark)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalCertNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		_, _, _ = UnmarshalCert(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDigestChainProperties pins algebraic properties of the measurement
// chain: order sensitivity and prefix determinism.
func TestDigestChainProperties(t *testing.T) {
	f := func(a, b []byte, gpaA, gpaB uint32) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		d0 := InitialDigest(defaultPolicy(), snpLevel())
		ab := ExtendDigest(ExtendDigest(d0, 1, uint64(gpaA), a), 1, uint64(gpaB), b)
		ba := ExtendDigest(ExtendDigest(d0, 1, uint64(gpaB), b), 1, uint64(gpaA), a)
		same := string(a) == string(b) && gpaA == gpaB
		if !same && ab == ba {
			return false // order must matter
		}
		// Determinism.
		ab2 := ExtendDigest(ExtendDigest(d0, 1, uint64(gpaA), a), 1, uint64(gpaB), b)
		return ab == ab2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
