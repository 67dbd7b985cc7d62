// sevf-digest is the paper's §4.2 tool: it computes the expected launch
// digest for a VM configuration (and, with -hashfile, the §4.3 out-of-band
// component hash file). A guest owner runs this on their own machine and
// compares the digest against the one in the attestation report.
//
//	sevf-digest -kernel aws -scheme severifast
//	sevf-digest -kernel aws -hashfile hashes.txt
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"

	severifast "github.com/severifast/severifast"
	"github.com/severifast/severifast/internal/measure"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sevf-digest", flag.ContinueOnError)
	var (
		kernel   = fs.String("kernel", "aws", "guest kernel: lupine | aws | ubuntu")
		scheme   = fs.String("scheme", "severifast", "boot flow: severifast | severifast-vmlinux | qemu-ovmf")
		level    = fs.String("level", "sev-snp", "SEV level: sev | sev-es | sev-snp")
		codec    = fs.String("codec", "lz4", "bzImage compression: lz4 | gzip")
		vcpus    = fs.Int("vcpus", 1, "guest vCPUs")
		memMiB   = fs.Int("mem", 256, "guest memory (MiB)")
		initrd   = fs.Int("initrd", 16, "initrd size (MiB)")
		verSeed  = fs.Int64("verifier-seed", 1, "boot verifier build identity")
		share    = fs.Bool("allow-key-sharing", false, "compute for a key-sharing launch policy")
		hashFile = fs.String("hashfile", "", "also write the out-of-band component hash file here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := severifast.Config{
		Kernel:          severifast.Kernel(*kernel),
		Level:           severifast.Level(*level),
		Scheme:          severifast.Scheme(*scheme),
		VCPUs:           *vcpus,
		MemMiB:          *memMiB,
		InitrdMiB:       *initrd,
		Codec:           severifast.Codec(*codec),
		VerifierSeed:    *verSeed,
		AllowKeySharing: *share,
	}
	digest, err := severifast.ExpectedLaunchDigest(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "expected launch digest (%s, %s, %s):\n%s\n",
		*kernel, *scheme, *level, hex.EncodeToString(digest[:]))

	if *hashFile != "" {
		h, err := severifast.ComponentHashes(cfg)
		if err != nil {
			return err
		}
		f, err := os.Create(*hashFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := measure.WriteHashFile(f, h); err != nil {
			return err
		}
		fmt.Fprintf(out, "component hash file written to %s\n", *hashFile)
	}
	return nil
}
