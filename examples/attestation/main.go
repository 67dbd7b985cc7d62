// Remote attestation end to end, over a real TCP socket: a guest owner
// runs a key broker (the paper's nginx stand-in), a host boots an SEV-SNP
// guest with SEVeriFast, and the guest trades a signed PSP report and its
// host's chain for the owner's secret. A second boot with a patched boot
// verifier shows the owner refusing a launch whose measurement differs
// (paper §2.6), with the reason "measurement".
//
//	go run ./examples/attestation
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	severifast "github.com/severifast/severifast"
)

func main() {
	host := severifast.NewHost()
	cfg := severifast.Config{
		Kernel: severifast.KernelAWS,
		Scheme: severifast.SchemeSEVeriFast,
	}

	// Guest owner: allows the launch digest the digest tool (§4.2)
	// computes, and serves the broker's challenge and redeem endpoints.
	secret := []byte("luks-volume-key-5f2e")
	owner := severifast.NewGuestOwner(host, secret)
	if err := owner.AllowConfig(cfg); err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(owner.Handler())
	defer server.Close()
	fmt.Println("guest-owner service listening on", server.URL)

	// Boot the genuine guest and attest over the socket.
	res, err := host.Boot(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guest booted in %v, launch digest %x...\n",
		res.Total.Round(0), res.LaunchDigest[:8])

	got, err := res.AttestOverHTTP(server.URL)
	if err != nil {
		log.Fatal("attestation failed: ", err)
	}
	fmt.Printf("attestation succeeded; owner released %q\n", got)

	// Now the host plays dirty: it boots a guest with a patched boot
	// verifier that would skip hash checks. The PSP measures what it
	// loads, so the report carries a different digest — and the owner
	// refuses to release anything.
	evil := cfg
	evil.VerifierSeed = 666
	evilRes, err := host.Boot(evil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmalicious boot came up too (digest %x...), but:\n", evilRes.LaunchDigest[:8])
	if _, err := evilRes.AttestOverHTTP(server.URL); err != nil {
		fmt.Println("owner refused:", err)
	} else {
		log.Fatal("BUG: malicious verifier attested successfully")
	}
}
