package attest

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/sev"
)

// The owner ingests host-relayed bytes; truncated, oversized, and
// wrong-size inputs must be rejected with clear errors before any
// cryptographic processing.

func TestTruncatedReportRefused(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	owner := NewOwner(platform.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	raw := report.Marshal()
	for _, n := range []int{0, 1, 17, len(raw) - 1} {
		if _, err := owner.HandleReport(raw[:n], agent.PublicKey()); err == nil {
			t.Fatalf("%d-byte report accepted", n)
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%d-byte report: %v, want truncation error", n, err)
		}
	}
}

func TestOversizedReportRefused(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	owner := NewOwner(platform.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	raw := append(report.Marshal(), 0xAA)
	if _, err := owner.HandleReport(raw, agent.PublicKey()); err == nil {
		t.Fatal("oversized report accepted")
	} else if !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("oversized report: %v, want oversize error", err)
	}
}

func TestWrongSizeGuestKeyRefused(t *testing.T) {
	platform, ctx, digest := launchGuest(t, 1, sev.SNP, sev.DefaultPolicy())
	owner := NewOwner(platform.VerificationKey(), []byte("s"), rand.New(rand.NewSource(7)))
	owner.Allow(digest)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	for _, pub := range [][]byte{nil, []byte("short"), make([]byte, 64)} {
		if _, err := owner.HandleReport(report.Marshal(), pub); !errors.Is(err, ErrBinding) {
			t.Fatalf("%d-byte guest key: %v, want ErrBinding", len(pub), err)
		}
	}
}

func TestUnwrapBundle(t *testing.T) {
	agent := NewAgentSeeded(99)
	bundle, err := kbs.WrapSecret(rand.New(rand.NewSource(4)), agent.PublicKey(), []byte("broker secret"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := agent.UnwrapBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "broker secret" {
		t.Fatalf("unwrapped %q", got)
	}
	if _, err := NewAgentSeeded(1).UnwrapBundle(bundle); err == nil {
		t.Fatal("wrong agent unwrapped the broker bundle")
	}
}

func TestChainCacheSpeedsRepeatAttestation(t *testing.T) {
	auth, enr, ctx, digest := enrolledGuest(t, 1)
	agent := NewAgentSeeded(99)
	report, err := ctx.BuildReport(nil, agent.ReportData())
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
