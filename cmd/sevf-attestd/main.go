// sevf-attestd runs the key broker (internal/kbs) over HTTP — the
// reproduction's stand-in for the paper's nginx attestation server
// (§6.1): a nonce-challenge front end with VCEK chain verification,
// revocation, minimum-TCB policy and per-tenant secrets. It pins the root
// of the key authority derived from -auth-seed.
//
// Without -allow, clients file the reference values: a fleet started with
// the same -auth-seed (sevf-fleet -kbs-url) files its images' digests over
// POST /claim and redeems its boots. With -allow, the listed
// configurations' launch digests are the only reference values: /claim is
// not served, and guests must be SEV-SNP under the default policy, as for
// a facade GuestOwner. A guest booted through the severifast facade
// (Result.AttestOverHTTP) redeems there, as tenant "owner" with its host's
// chain, which verifies when -auth-seed is that host's authority seed:
// the host seed XOR 0xB0B (2826 for severifast.NewHost()).
//
//	sevf-attestd -auth-seed 2826 -allow aws/severifast -kbs-tenants "owner=disk key"
//	sevf-attestd -auth-seed 7 -kbs-tenants "tenant-0=disk key" -min-tcb 2.1.8.115
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	severifast "github.com/severifast/severifast"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/sev"
)

func main() {
	handler, listen, err := setup(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("key broker on %s\n", listen)
	if err := http.ListenAndServe(listen, handler); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// setup parses flags and assembles the broker's handler; main only binds
// the socket, so tests can drive the full service via httptest.
func setup(args []string, out io.Writer) (http.Handler, string, error) {
	fs := flag.NewFlagSet("sevf-attestd", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", ":8443", "listen address")
		allow    = fs.String("allow", "", "comma-separated kernel/scheme configurations whose launch digests are the only reference values (closes /claim; floors guests at SNP and the default policy)")
		initrd   = fs.Int("initrd", 16, "initrd size (MiB) of the allowed configurations")
		authSeed = fs.Int64("auth-seed", 1, "key-authority seed; platforms enrolled under the same seed verify")
		tenants  = fs.String("kbs-tenants", "owner=guest-volume-key", "comma-separated name=secret tenant registrations")
		minTCB   = fs.String("min-tcb", "0.0.0.0", "minimum platform TCB (bootloader.tee.snp.microcode)")
		nonceTTL = fs.Duration("nonce-ttl", time.Minute, "challenge lifetime in virtual time")
		kbsSeed  = fs.Int64("kbs-seed", 1, "broker nonce and secret-wrapping seed")
	)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}

	floor, err := kbs.ParseTCB(*minTCB)
	if err != nil {
		return nil, "", fmt.Errorf("-min-tcb: %w", err)
	}
	cfg := kbs.Config{MinTCB: floor, NonceTTL: *nonceTTL, Seed: *kbsSeed}
	if *allow != "" {
		cfg.MinLevel, cfg.MinPolicy = sev.SNP, sev.DefaultPolicy()
	}
	broker := kbs.NewBroker(kbs.NewAuthority(*authSeed).Root(), cfg)
	entries := strings.Split(*tenants, ",")
	for _, entry := range entries {
		name, secret, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" {
			return nil, "", fmt.Errorf("bad -kbs-tenants entry %q (want name=secret)", entry)
		}
		broker.AddTenant(name, []byte(secret))
	}
	fmt.Fprintf(out, "key broker: authority seed %d, %d tenants, min TCB %v\n", *authSeed, len(entries), floor)
	if *allow == "" {
		fmt.Fprintln(out, "reference values: filed by clients (POST /challenge, /redeem, /claim; GET /stats)")
		return broker.Handler(), *listen, nil
	}
	for _, entry := range strings.Split(*allow, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), "/", 2)
		if len(parts) != 2 {
			return nil, "", fmt.Errorf("bad -allow entry %q (want kernel/scheme)", entry)
		}
		d, err := severifast.ExpectedLaunchDigest(severifast.Config{
			Kernel:    severifast.Kernel(parts[0]),
			Scheme:    severifast.Scheme(parts[1]),
			InitrdMiB: *initrd,
		})
		if err == nil {
			err = broker.File(kbs.RefClaim(d, entry))
		}
		if err != nil {
			return nil, "", fmt.Errorf("allow %q: %w", entry, err)
		}
		fmt.Fprintf(out, "allowing %s\n", entry)
	}
	fmt.Fprintln(out, "reference values: -allow only, SNP and the default policy required (POST /challenge, /redeem; GET /stats)")
	h, mux := broker.Handler(), http.NewServeMux()
	for _, path := range []string{"/challenge", "/redeem", "/stats"} {
		mux.Handle(path, h)
	}
	return mux, *listen, nil
}
