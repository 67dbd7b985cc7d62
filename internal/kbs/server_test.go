package kbs_test

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// httpCase is one request against the broker's HTTP face and the status
// and body substring it must draw.
type httpCase struct {
	name   string
	method string
	path   string
	body   string
	status int
	// want is a substring of the response body.
	want string
}

// runHTTPCases serves a fresh broker and runs each case as a subtest.
func runHTTPCases(t *testing.T, cases []httpCase) {
	t.Helper()
	auth := kbs.NewAuthority(7)
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			blob, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %q)", resp.StatusCode, tc.status, blob)
			}
			if !strings.Contains(string(blob), tc.want) {
				t.Errorf("body %q missing %q", blob, tc.want)
			}
		})
	}
}

// TestHandlerErrorPaths drives every malformed-input class through each
// endpoint of the HTTP face: wrong method, invalid JSON, an oversized
// body, bad hex fields, short inputs and an unknown tenant. Denials are
// 403 with a JSON reason; everything malformed is 400 before the broker
// is ever consulted.
func TestHandlerErrorPaths(t *testing.T) {
	huge := `{"tenant":"` + strings.Repeat("a", 1<<20) + `"}`
	// A claim cut off after its magic and version: the right prefix, too
	// few bytes.
	ref := kbs.RefClaim([32]byte{}, "img")
	short := hex.EncodeToString(ref.Marshal()[:8])
	runHTTPCases(t, []httpCase{
		{"challenge GET", http.MethodGet, "/challenge", "", http.StatusMethodNotAllowed, "POST only"},
		{"redeem GET", http.MethodGet, "/redeem", "", http.StatusMethodNotAllowed, "POST only"},
		{"claim DELETE", http.MethodDelete, "/claim", "", http.StatusMethodNotAllowed, "POST only"},
		{"challenge bad JSON", http.MethodPost, "/challenge", `{"tenant":`, http.StatusBadRequest, "json:"},
		{"challenge oversized body", http.MethodPost, "/challenge", huge, http.StatusBadRequest, "read:"},
		{"challenge unknown tenant", http.MethodPost, "/challenge", `{"tenant":"nobody","now":0}`, http.StatusForbidden, `"reason":"tenant"`},
		{"redeem short nonce", http.MethodPost, "/redeem", `{"tenant":"acme","nonce":"abcd"}`, http.StatusBadRequest, "nonce: want 32 hex-encoded bytes"},
		{"redeem bad nonce hex", http.MethodPost, "/redeem", `{"tenant":"acme","nonce":"zz"}`, http.StatusBadRequest, "nonce: want 32 hex-encoded bytes"},
		{"redeem bad report hex", http.MethodPost, "/redeem",
			`{"tenant":"acme","nonce":"` + strings.Repeat("00", 32) + `","report":"zz"}`,
			http.StatusBadRequest, "report hex:"},
		{"redeem bad chain hex", http.MethodPost, "/redeem",
			`{"tenant":"acme","nonce":"` + strings.Repeat("00", 32) + `","report":"","chain":"zz"}`,
			http.StatusBadRequest, "chain hex:"},
		{"redeem bad guest key hex", http.MethodPost, "/redeem",
			`{"tenant":"acme","nonce":"` + strings.Repeat("00", 32) + `","report":"","chain":"","guest_pub":"zz"}`,
			http.StatusBadRequest, "guest_pub hex:"},
		{"redeem unissued nonce", http.MethodPost, "/redeem",
			`{"tenant":"acme","nonce":"` + strings.Repeat("00", 32) + `","report":"","chain":"","guest_pub":""}`,
			http.StatusForbidden, `"reason":"replay"`},
		{"claim bad hex", http.MethodPost, "/claim", `{"claim":"abc"}`, http.StatusBadRequest, "claim hex:"},
		{"claim bad wire", http.MethodPost, "/claim", `{"claim":"` + short + `"}`, http.StatusBadRequest, "claim wire invalid"},
	})
}

// TestClaimErrorPaths pins /claim, the one trust write on the wire. It
// decodes with policy's bounded claim encoding: every malformed body is
// 400 and never reaches the store. A well-formed claim of a kind the
// broker will not file is 403.
func TestClaimErrorPaths(t *testing.T) {
	claimBody := func(c policy.Claim) string {
		return `{"claim":"` + hex.EncodeToString(c.Marshal()) + `"}`
	}
	ref := kbs.RefClaim([32]byte{1}, "img")
	foreign := ref
	foreign.Scope = "mallory"
	renamed := ref
	renamed.ID = "revoked-chip-0"
	windowed := ref
	windowed.NotAfter = 5
	squatter := kbs.RevocationClaim("junk", 0)
	squatter.ID = ref.ID
	runHTTPCases(t, []httpCase{
		{"wrong method", http.MethodGet, "/claim", "", http.StatusMethodNotAllowed, "POST only"},
		{"malformed json", http.MethodPost, "/claim", "{not json", http.StatusBadRequest, "json:"},
		{"oversized body", http.MethodPost, "/claim", `{"claim":"` + strings.Repeat("a", 1<<21) + `"}`, http.StatusBadRequest, "read:"},
		{"bad claim hex", http.MethodPost, "/claim", `{"claim":"zz"}`, http.StatusBadRequest, "claim hex:"},
		{"bad claim wire", http.MethodPost, "/claim", `{"claim":"00ff"}`, http.StatusBadRequest, "claim wire invalid"},
		{"oversized wire", http.MethodPost, "/claim", `{"claim":"` + strings.Repeat("00", 4096) + `"}`, http.StatusBadRequest, "exceeds maximum"},
		{"platform kind", http.MethodPost, "/claim",
			claimBody(policy.Claim{ID: "aaa-floor", Kind: policy.KindPlatform, Scope: "*", Subject: "*"}),
			http.StatusForbidden, "only measurement and revocation"},
		{"delegation kind", http.MethodPost, "/claim",
			claimBody(policy.Claim{ID: "aaa-delegate", Kind: policy.KindDelegation, Scope: "*", Subject: "mallory"}),
			http.StatusForbidden, "only measurement and revocation"},
		{"wildcard measurement subject", http.MethodPost, "/claim",
			claimBody(policy.Claim{ID: "ref-*", Kind: policy.KindMeasurement, Scope: "*", Subject: "*"}),
			http.StatusBadRequest, "not a 32-byte hex digest"},
		{"short measurement subject", http.MethodPost, "/claim",
			claimBody(policy.Claim{ID: "ref-abcd", Kind: policy.KindMeasurement, Scope: "*", Subject: "abcd"}),
			http.StatusBadRequest, "not a 32-byte hex digest"},
		{"foreign scope", http.MethodPost, "/claim", claimBody(foreign), http.StatusBadRequest, "not a broker reference value"},
		{"caller-chosen measurement ID", http.MethodPost, "/claim", claimBody(renamed), http.StatusBadRequest, "not a broker reference value"},
		{"measurement with expiry", http.MethodPost, "/claim", claimBody(windowed), http.StatusBadRequest, "not a broker reference value"},
		{"caller-chosen revocation ID", http.MethodPost, "/claim", claimBody(squatter), http.StatusBadRequest, "not a broker reference value"},
		{"revocation without chip", http.MethodPost, "/claim", claimBody(kbs.RevocationClaim("", 0)), http.StatusBadRequest, "names no chip"},
	})
}

// TestClaimIDsAreTheBrokers: a caller cannot squat the ID of a later
// revocation. A measurement claim named "revoked-chip-0" is refused over
// the wire, so the broker's own revocation of chip-0 still files and the
// chip's next exchange is denied as revoked.
func TestClaimIDsAreTheBrokers(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	c := &kbs.Client{Base: srv.URL}

	if err := c.File(kbs.RefClaim(pl.digest, "img")); err != nil {
		t.Fatal(err)
	}
	squat := kbs.RefClaim(pl.digest, "img")
	squat.ID = "revoked-chip-0"
	if err := c.File(squat); err == nil {
		t.Fatal("a measurement claim under a revocation's ID was filed")
	}
	if err := b.File(kbs.RevocationClaim("chip-0", 0)); err != nil {
		t.Fatal(err)
	}
	_, _, err := exchange(t, c, pl, "acme", 0, nil)
	if keyOf(err) != "revoked" {
		t.Fatalf("exchange from a revoked chip: %v, want revoked", err)
	}
	// The engine's verdict crosses the wire whole: its rule, and the
	// claim that decided it.
	if d := policy.DenialOf(err); !errors.Is(err, policy.ErrDenied) || d.Claim != "revoked-chip-0" || d.Rule != policy.RulePlatform {
		t.Fatalf("revoked denial over the wire = %+v, want the platform rule naming revoked-chip-0", d)
	}
}

// TestDenialBodyShape pins the 403 wire format: {rule, reason, detail,
// claim} JSON, with the detail carrying the broker's refusal text and the
// rule and claim omitted for the broker's own checks.
func TestDenialBodyShape(t *testing.T) {
	auth := kbs.NewAuthority(7)
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/challenge", "application/json",
		strings.NewReader(`{"tenant":"nobody","now":0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body) != 2 || body["reason"] != string(kbs.ReasonTenant) {
		t.Errorf("body = %v, want only the reason %q and a detail", body, kbs.ReasonTenant)
	}
	if !strings.Contains(body["detail"], "nobody") {
		t.Errorf("detail %q does not name the tenant", body["detail"])
	}
}

// TestBoundaryInstants audits the shared inclusive-expiry convention
// end to end: a challenge nonce is redeemable at exactly its Expires
// instant, and a revoked policy claim still admits at exactly the
// revocation instant — both invalid strictly after. Nonce freshness and
// claim validity must agree, or a boot straddling the boundary would be
// accepted by one gate and refused by the other.
func TestBoundaryInstants(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	ttl := 500 * time.Millisecond

	t.Run("nonce at expiry", func(t *testing.T) {
		b := newBroker(auth, kbs.Config{
			MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3, NonceTTL: ttl,
		})
		if err := b.File(kbs.RefClaim(pl.digest, "img")); err != nil {
			t.Fatal(err)
		}
		ch, err := b.Challenge("acme", 0)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Expires != sim.Time(ttl) {
			t.Fatalf("Expires = %v, want %v", ch.Expires, sim.Time(ttl))
		}
		priv := guestKey(t, 99)
		pub := priv.PublicKey().Bytes()
		report, err := pl.ctx.BuildReport(nil, kbs.BindReportData(ch.Nonce, pub))
		if err != nil {
			t.Fatal(err)
		}
		req := kbs.RedeemRequest{Tenant: "acme", Nonce: ch.Nonce, Report: report.Marshal(),
			Chain: pl.enr.Chain.Marshal(), GuestPub: pub}
		if _, err := b.Redeem(req, ch.Expires); err != nil {
			t.Fatalf("redeem at exactly Expires refused: %v", err)
		}
	})

	t.Run("claim at revocation instant", func(t *testing.T) {
		b := newBroker(auth, kbs.Config{
			MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3, NonceTTL: ttl,
		})
		if err := b.File(kbs.RefClaim(pl.digest, "img")); err != nil {
			t.Fatal(err)
		}
		revokeAt := sim.Time(200 * time.Millisecond)
		if err := b.Policy().RevokeClaim("*", kbs.RefClaim(pl.digest, "img").ID, revokeAt); err != nil {
			t.Fatal(err)
		}
		// At exactly the revocation instant the claim still admits.
		if _, _, err := exchange(t, b, pl, "acme", revokeAt, nil); err != nil {
			t.Fatalf("exchange at exactly the revocation instant refused: %v", err)
		}
		// One nanosecond later the measurement is distrusted, and the
		// refusal carries the policy denial as its cause.
		_, _, err := exchange(t, b, pl, "acme", revokeAt+1, nil)
		if !errors.Is(err, kbs.ErrMeasurement) {
			t.Fatalf("exchange after revocation: %v, want measurement denial", err)
		}
		if !errors.Is(err, policy.ErrDenied) {
			t.Fatalf("broker denial lost its policy cause: %v", err)
		}
		if d := policy.DenialOf(err); d == nil || d.Reason != policy.ReasonExpired {
			t.Fatalf("policy denial = %+v, want reason %q", d, policy.ReasonExpired)
		}
	})
}

// TestFileOverTheWire: File is the broker's one trust write on both sides
// of the wire. A repeated reference value succeeds in process and through
// kbs.Client and files one claim; a platform or delegation claim is
// refused on both sides and leaves the store untouched, so no caller can
// lower the floor or delegate the broker's anchor.
func TestFileOverTheWire(t *testing.T) {
	auth := kbs.NewAuthority(7)
	pl := launch(t, auth, "chip-0", currentTCB, sev.SNP, sev.DefaultPolicy())
	b := newBroker(auth, kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	c := &kbs.Client{Base: srv.URL}

	ref := kbs.RefClaim(pl.digest, "img")
	for i, svc := range []kbs.Service{b, b, c, c} {
		if err := svc.File(ref); err != nil {
			t.Fatalf("filing the reference value, call %d: %v", i, err)
		}
	}
	if s := remoteStats(t, srv.URL); s.RefValues != 1 {
		t.Fatalf("RefValues = %d after four filings of one digest, want 1", s.RefValues)
	}
	if _, _, err := exchange(t, c, pl, "acme", 0, nil); err != nil {
		t.Fatalf("exchange after filing over the wire: %v", err)
	}

	v := b.Policy().Version()
	for _, bad := range []policy.Claim{
		{ID: "aaa-floor", Kind: policy.KindPlatform, Scope: "*", Subject: "*"},
		{ID: "aaa-delegate", Kind: policy.KindDelegation, Scope: "*", Subject: "mallory"},
	} {
		for i, svc := range []kbs.Service{b, c} {
			err := svc.File(bad)
			if err == nil || keyOf(err) != "" {
				t.Fatalf("%s claim, service %d: %v, want a refusal that is not an exchange denial", bad.Kind, i, err)
			}
		}
	}
	if b.Policy().Version() != v {
		t.Fatal("a refused claim reached the store")
	}
}
