package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	severifast "github.com/severifast/severifast"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
)

// TestSetupAndAttestEndToEnd: with -allow the daemon is a facade guest
// owner. A guest booted through the facade on the seed-5 host redeems as
// "owner" with its host's chain; a guest of another host is refused as
// forged, because its chain does not verify under the pinned root.
func TestSetupAndAttestEndToEnd(t *testing.T) {
	srv := allowServer(t)
	res := bootLupine(t, 5, severifast.Config{})
	secret, err := res.AttestOverHTTP(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if string(secret) != "the-disk-key" {
		t.Fatalf("secret %q", secret)
	}

	other := bootLupine(t, 6, severifast.Config{})
	if _, err := other.AttestOverHTTP(srv.URL); !kbsDenied(err, kbs.ReasonForged) ||
		!errors.Is(err, severifast.ErrAttestationDenied) {
		t.Fatalf("foreign-platform guest: %v, want a forged denial", err)
	}
}

// TestAllowTakesNoClaims: with -allow, a client that reaches the daemon
// cannot file the digest of its patched verifier as a reference value,
// so the patched guest stays refused, as by a facade GuestOwner.
func TestAllowTakesNoClaims(t *testing.T) {
	srv := allowServer(t)
	evil := bootLupine(t, 5, severifast.Config{VerifierSeed: 666})
	if err := (&kbs.Client{Base: srv.URL}).File(kbs.RefClaim(evil.LaunchDigest, "patched")); err == nil {
		t.Fatal("the daemon filed a client's reference value next to -allow")
	}
	if _, err := evil.AttestOverHTTP(srv.URL); !kbsDenied(err, kbs.ReasonMeasurement) ||
		!errors.Is(err, severifast.ErrMeasurementMismatch) {
		t.Fatalf("patched verifier after a claim attempt: %v, want a measurement denial", err)
	}
}

// TestAllowFloorsGuests: with -allow, a guest whose launch policy lets it
// share its key is refused for its policy before its measurement is looked
// up: the floor a facade GuestOwner keeps.
func TestAllowFloorsGuests(t *testing.T) {
	srv := allowServer(t)
	res := bootLupine(t, 5, severifast.Config{AllowKeySharing: true})
	if _, err := res.AttestOverHTTP(srv.URL); !kbsDenied(err, kbs.ReasonPolicy) ||
		!errors.Is(err, severifast.ErrAttestationDenied) {
		t.Fatalf("key-sharing guest: %v, want a policy denial", err)
	}
}

// allowServer serves setup's handler for -allow lupine/severifast under
// the authority of the seed-5 facade host.
func allowServer(t *testing.T) *httptest.Server {
	t.Helper()
	var out bytes.Buffer
	handler, listen, err := setup([]string{
		"-allow", "lupine/severifast",
		"-auth-seed", strconv.Itoa(5 ^ 0xB0B),
		"-kbs-tenants", "owner=the-disk-key",
		"-initrd", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if listen != ":8443" {
		t.Fatalf("listen %q", listen)
	}
	if !strings.Contains(out.String(), "allowing lupine/severifast") ||
		!strings.Contains(out.String(), "reference values: -allow only") {
		t.Fatalf("setup output: %q", out.String())
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv
}

// bootLupine boots cfg's lupine/severifast guest with a 2 MiB initrd on a
// fresh host of the given seed.
func bootLupine(t *testing.T, seed int64, cfg severifast.Config) *severifast.Result {
	t.Helper()
	cfg.Kernel, cfg.InitrdMiB = severifast.KernelLupine, 2
	res, err := severifast.NewHostSeed(seed).Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runFleet boots two arrivals of a small image per tenant on a fleet
// enrolled under kbs.NewAuthority(authSeed), redeeming at the broker at
// url, and returns how many boots attested.
func runFleet(t *testing.T, url string, authSeed int64, tenants ...string) int {
	t.Helper()
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	enr := kbs.NewAuthority(authSeed).Enroll(host.PSP, "chip-X", kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 115})
	o := fleet.New(eng, host, fleet.Config{
		Workers:    2,
		KBS:        &kbs.Client{Base: url},
		Enrollment: enr,
		AgentSeed:  4,
	})
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if err := (fleet.Workload{
		Arrivals:         2 * len(tenants),
		MeanInterarrival: time.Millisecond,
		Tenants:          tenants,
		Images:           []*fleet.Image{img},
		Seed:             3,
	}).Run(eng, o); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	return o.Metrics().Attested
}

// TestKBSModeServesFleet is the README's two-process story under test:
// the daemon on one side, a fleet enrolled under the same authority seed
// redeeming its boots through kbs.Client on the other.
func TestKBSModeServesFleet(t *testing.T) {
	var out bytes.Buffer
	handler, _, err := setup([]string{
		"-auth-seed", "9",
		"-kbs-tenants", "acme=acme disk key,globex=globex disk key",
		"-min-tcb", "2.1.8.100",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "key broker: authority seed 9, 2 tenants, min TCB 2.1.8.100") ||
		!strings.Contains(out.String(), "reference values: filed by clients") {
		t.Fatalf("setup output: %q", out.String())
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	if got := runFleet(t, srv.URL, 9, "acme", "globex"); got != 4 {
		t.Fatalf("attested %d boots over HTTP, want 4", got)
	}

	// The remote broker saw the exchanges and the cache-provisioned digest.
	r, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats kbs.Stats
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Grants != 4 || stats.RefValues == 0 {
		t.Fatalf("remote broker stats: %+v, want 4 grants and a provisioned digest", stats)
	}

	// An unknown tenant is refused with the reason intact across the wire.
	_, err = (&kbs.Client{Base: srv.URL}).Challenge("mallory", 0)
	if !kbsDenied(err, kbs.ReasonTenant) {
		t.Fatalf("unknown tenant error %v, want tenant denial", err)
	}
}

func kbsDenied(err error, want kbs.Reason) bool {
	return err != nil && kbs.ReasonOf(err) == want
}

func TestKBSModeRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-kbs-tenants", "nonsense"},
		{"-kbs-tenants", "=secret"},
		{"-min-tcb", "1.2.3"},
	} {
		var out bytes.Buffer
		if _, _, err := setup(args, &out); err == nil {
			t.Errorf("setup(%v) succeeded, want error", args)
		}
	}
}

func TestSetupRejectsBadAllowEntry(t *testing.T) {
	var out bytes.Buffer
	if _, _, err := setup([]string{"-allow", "nonsense"}, &out); err == nil {
		t.Fatal("malformed allow entry accepted")
	}
	if _, _, err := setup([]string{"-allow", "gentoo/severifast"}, &out); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}
