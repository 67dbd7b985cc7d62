// sevf-attestd runs the guest-owner attestation service over HTTP — the
// reproduction's stand-in for the paper's nginx server (§6.1). It trusts
// the PSP of the simulated host identified by -host-seed and releases
// -secret to guests whose launch digest matches an allowed configuration.
//
// With -kbs it also serves the key-broker protocol (internal/kbs): a
// nonce-challenge front end with VCEK chain verification, revocation,
// minimum-TCB policy, and per-tenant secrets. A fleet started with the
// same -auth-seed (sevf-fleet -kbs-url) redeems its boots here.
//
//	sevf-attestd -listen :8443 -allow aws/severifast -secret "disk key"
//	sevf-attestd -kbs -auth-seed 7 -kbs-tenants "tenant-0=disk key" -min-tcb 2.1.8.115
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
)

func main() {
	handler, listen, err := setup(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("guest-owner attestation service on %s (POST /attest)\n", listen)
	if err := http.ListenAndServe(listen, handler); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// setup parses flags and assembles the service handler; main only binds
// the socket, so tests can drive the full service via httptest. The
// legacy guest-owner endpoint (POST /attest) is always served; the broker
// endpoints (/challenge, /redeem, /claim, /stats) appear with -kbs.
func setup(args []string, out io.Writer) (http.Handler, string, error) {
	fs := flag.NewFlagSet("sevf-attestd", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", ":8443", "listen address")
		hostSeed = fs.Int64("host-seed", 1, "seed of the simulated host whose PSP we trust")
		secret   = fs.String("secret", "guest-volume-key", "secret released after successful attestation")
		allow    = fs.String("allow", "aws/severifast", "comma-separated kernel/scheme configurations to allow")
		initrd   = fs.Int("initrd", 16, "initrd size (MiB) of the allowed configurations")

		kbsMode  = fs.Bool("kbs", false, "serve the key-broker endpoints (/challenge, /redeem, ...)")
		authSeed = fs.Int64("auth-seed", 1, "key-authority seed; fleets enrolled under the same seed verify")
		tenants  = fs.String("kbs-tenants", "tenant-0=guest-volume-key", "comma-separated name=secret tenant registrations")
		minTCB   = fs.String("min-tcb", "0.0.0.0", "minimum platform TCB (bootloader.tee.snp.microcode)")
		nonceTTL = fs.Duration("nonce-ttl", time.Minute, "challenge lifetime in virtual time")
		kbsSeed  = fs.Int64("kbs-seed", 1, "broker nonce and secret-wrapping seed")
	)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}

	host := severifast.NewHostSeed(*hostSeed)
	owner := severifast.NewGuestOwner(host, []byte(*secret))
	for _, entry := range strings.Split(*allow, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), "/", 2)
		if len(parts) != 2 {
			return nil, "", fmt.Errorf("bad -allow entry %q (want kernel/scheme)", entry)
		}
		cfg := severifast.Config{
			Kernel:    severifast.Kernel(parts[0]),
			Scheme:    severifast.Scheme(parts[1]),
			InitrdMiB: *initrd,
		}
		if err := owner.AllowConfig(cfg); err != nil {
			return nil, "", fmt.Errorf("allow %q: %w", entry, err)
		}
		fmt.Fprintf(out, "allowing %s\n", entry)
	}
	if !*kbsMode {
		return owner.Handler(), *listen, nil
	}

	floor, err := kbs.ParseTCB(*minTCB)
	if err != nil {
		return nil, "", fmt.Errorf("-min-tcb: %w", err)
	}
	auth := kbs.NewAuthority(*authSeed)
	broker := kbs.NewBroker(auth.Root(), kbs.Config{
		MinTCB:   floor,
		NonceTTL: *nonceTTL,
		Seed:     *kbsSeed,
	})
	n := 0
	for _, entry := range strings.Split(*tenants, ",") {
		name, tsecret, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" {
			return nil, "", fmt.Errorf("bad -kbs-tenants entry %q (want name=secret)", entry)
		}
		broker.AddTenant(name, []byte(tsecret))
		n++
	}
	fmt.Fprintf(out, "key broker: authority seed %d, %d tenants, min TCB %v\n", *authSeed, n, floor)

	mux := http.NewServeMux()
	mux.Handle("/attest", owner.Handler())
	mux.Handle("/", broker.Handler())
	return mux, *listen, nil
}
