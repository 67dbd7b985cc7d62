package attest

import (
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/sev"
)

// The owner ingests host-relayed bytes; truncated, oversized, and
// wrong-size inputs must be rejected as malformed, with clear errors,
// before any cryptographic processing.

func TestTruncatedReportRefused(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	o := owner(platform.VerificationKey(), digest, []byte("s"))
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	raw := report.Marshal()
	for _, n := range []int{0, 1, 17, len(raw) - 1} {
		if _, err := o.release(raw[:n], agent.PublicKey()); keyOf(err) != kbs.ReasonMalformed {
			t.Fatalf("%d-byte report: %v, want a malformed denial", n, err)
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%d-byte report: %v, want truncation error", n, err)
		}
	}
}

func TestOversizedReportRefused(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	o := owner(platform.VerificationKey(), digest, []byte("s"))
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	raw := append(report.Marshal(), 0xAA)
	if _, err := o.release(raw, agent.PublicKey()); keyOf(err) != kbs.ReasonMalformed {
		t.Fatalf("oversized report: %v, want a malformed denial", err)
	} else if !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("oversized report: %v, want oversize error", err)
	}
}

func TestWrongSizeGuestKeyRefused(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	o := owner(platform.VerificationKey(), digest, []byte("s"))
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	for _, pub := range [][]byte{nil, []byte("short"), make([]byte, 64)} {
		if _, err := o.release(report.Marshal(), pub); keyOf(err) != kbs.ReasonMalformed {
			t.Fatalf("%d-byte guest key: %v, want a malformed denial", len(pub), err)
		}
	}
}

func TestUnwrapBundle(t *testing.T) {
	agent := NewAgentSeeded(99)
	bundle, err := kbs.WrapSecret(rand.New(rand.NewSource(4)), agent.PublicKey(), []byte("broker secret"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := agent.Unwrap(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "broker secret" {
		t.Fatalf("unwrapped %q", got)
	}
	if _, err := NewAgentSeeded(1).Unwrap(bundle); err == nil {
		t.Fatal("wrong agent unwrapped the broker bundle")
	}
}

func TestChainCacheSpeedsRepeatAttestation(t *testing.T) {
	auth, enr, ctx, digest := enrolledGuest(t, 1)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	v := kbs.NewVerifier(auth.Root())
	chain := enr.Chain.Marshal()
	for i := 0; i < 3; i++ {
		if _, err := attestWithChain(v, digest, []byte("s"), report.Marshal(), chain, agent); err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	hits, misses := v.CacheStats()
	if misses != 1 || hits != 2 {
		t.Fatalf("chain cache hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

// TestOwnerBundleBytesArePinned holds the owner's wrap to its draws: for a
// fixed seed, two releases in a row carry these exact ephemeral keys,
// nonces and ciphertexts, so a change in what the wrap draws from the
// owner's stream, or in what order, shows here. Each release draws a
// 32-byte key, then a 12-byte nonce.
func TestOwnerBundleBytesArePinned(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	o := owner(platform.VerificationKey(), digest, []byte("pinned secret"))
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.reportData())
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{{
		"8f82a3a766b9bd5e4cacb24514bb0b5b9a75487d23711edfe45fd44a34931506",
		"44c85fd174bfccf43cb5f561",
		"c8e408ad7886c8ea96bd6c4897084e67a7dbad8418d66c816d7d1b8b16",
	}, {
		"f49a8d2bb85c4462685e85c84d76f21885618a525212890d3eb86177820a6204",
		"ba26c55e2f5169c92f2f4691",
		"de116d5e2b68bd485c02e3a73dd1336cde2db30ba4cb581385b2b6ec87",
	}}
	for i, w := range want {
		b, err := o.release(report.Marshal(), agent.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		got := [3]string{hex.EncodeToString(b.OwnerPub), hex.EncodeToString(b.Nonce), hex.EncodeToString(b.Ciphertext)}
		if got != w {
			t.Errorf("release %d: bundle (owner key, nonce, ciphertext) = %q, want %q", i, got, w)
		}
	}
}
