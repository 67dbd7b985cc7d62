// Warm start for confidential microVMs — the paper's §7 future work,
// explored: snapshot a booted SEV-SNP guest and fork clones of it instead
// of cold-booting. A clone aliases the donor's memory and inherits its key
// and launch digest. The catch is the paper's trade-off: the donor must be
// launched with a key-sharing policy, which every guest owner sees in the
// attestation report, and a strict-policy donor is refused; without key
// sharing the donor's memory is undecryptable ciphertext to any clone.
// Many boots of one image go through a Pool, which measures the first and
// forks every later one.
//
//	go run ./examples/warmstart
package main

import (
	"fmt"
	"log"
	"time"

	severifast "github.com/severifast/severifast"
)

func main() {
	host := severifast.NewHost()

	// Cold-boot a donor with the relaxed (key-sharing) policy.
	cold, err := host.Boot(severifast.Config{
		Kernel:          severifast.KernelAWS,
		Scheme:          severifast.SchemeSEVeriFast,
		AllowKeySharing: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	snap, err := host.Snapshot(cold)
	if err != nil {
		log.Fatal(err)
	}

	// Warm-start a clone from the snapshot.
	warm, err := host.WarmBoot(snap)
	if err != nil {
		log.Fatal(err)
	}
	r := func(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
	fmt.Printf("cold boot (SEVeriFast, SNP):  %v\n", r(cold.Total))
	fmt.Printf("warm start from snapshot:     %v  (%.1fx faster)\n",
		r(warm.Total), float64(cold.Total)/float64(warm.Total))
	poolBoots(r)

	// The trade-off is enforced: a strict-policy donor cannot donate.
	strict, err := host.Boot(severifast.Config{
		Kernel: severifast.KernelAWS,
		Scheme: severifast.SchemeSEVeriFast,
	})
	if err != nil {
		log.Fatal(err)
	}
	strictSnap, err := host.Snapshot(strict)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := host.WarmBoot(strictSnap); err != nil {
		fmt.Printf("\nstrict-policy donor refused, as it must: %v\n", err)
	} else {
		log.Fatal("BUG: strict policy donated its key")
	}
	fmt.Println("\nKey sharing weakens the trust model — and it is visible: the relaxed")
	fmt.Println("policy changes the launch digest, so guest owners always know (§6.2/§7).")
}

// poolBoots serves several boots of one image through a Pool: the first
// is measured, the rest fork from it, and every one attests with the same
// launch digest.
func poolBoots(r func(time.Duration) time.Duration) {
	const boots = 4
	pool, err := severifast.NewPool(severifast.Config{Kernel: severifast.KernelAWS}, severifast.PoolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	var digest [32]byte
	for i := 0; i < boots; i++ {
		res, err := pool.Boot()
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			digest = res.LaunchDigest
		} else if res.LaunchDigest != digest {
			log.Fatalf("BUG: pooled boot %d measured %x, the first %x", i, res.LaunchDigest[:8], digest[:8])
		}
	}
	st := pool.Stats()
	fmt.Printf("pool: %d cold + %d forked boots, one digest %x…, warm p50 %v\n",
		st.ColdBoots, st.WarmBoots, digest[:8], r(st.WarmP50))
}
