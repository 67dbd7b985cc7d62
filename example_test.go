package severifast_test

import (
	"fmt"
	"time"

	severifast "github.com/severifast/severifast"
)

// The basic flow: boot one SEV-SNP microVM with SEVeriFast and inspect
// where the time went.
func ExampleBoot() {
	res, err := severifast.Boot(severifast.Config{
		Kernel: severifast.KernelLupine,
		Scheme: severifast.SchemeSEVeriFast,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("pre-encryption under 10ms:", res.PreEncryption < 10*time.Millisecond)
	fmt.Println("booted to init:", res.InitrdOK)
	// Output:
	// pre-encryption under 10ms: true
	// booted to init: true
}

// The guest owner's side: compute the launch digest a correct boot must
// produce, without booting anything (the paper's §4.2 tool).
func ExampleExpectedLaunchDigest() {
	cfg := severifast.Config{Kernel: severifast.KernelLupine}
	want, err := severifast.ExpectedLaunchDigest(cfg)
	if err != nil {
		panic(err)
	}
	res, err := severifast.Boot(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("measurement matches:", res.LaunchDigest == want)
	// Output:
	// measurement matches: true
}

// Concurrent launches contend on the single PSP (the paper's Fig. 12).
func ExampleHost_BootConcurrent() {
	cfg := severifast.Config{Kernel: severifast.KernelLupine, InitrdMiB: 2}
	one, err := severifast.NewHost().BootConcurrent(cfg, 1)
	if err != nil {
		panic(err)
	}
	eight, err := severifast.NewHost().BootConcurrent(cfg, 8)
	if err != nil {
		panic(err)
	}
	var mean time.Duration
	for _, r := range eight {
		mean += r.Total
	}
	mean /= 8
	fmt.Println("8-way slower than 1-way:", mean > one[0].Total)
	// Output:
	// 8-way slower than 1-way: true
}

// The Pool is the supported way to run many boots of one image: the
// first Boot cold boots and measures; later Boots fork from the captured
// snapshot, inheriting the cold boot's launch digest, and Prewarm holds
// forked standbys ready ahead of demand.
func ExampleNewPool() {
	pool, err := severifast.NewPool(severifast.Config{
		Kernel:    severifast.KernelLupine,
		InitrdMiB: 2,
	}, severifast.PoolOptions{})
	if err != nil {
		panic(err)
	}
	defer pool.Close()
	cold, err := pool.Boot()
	if err != nil {
		panic(err)
	}
	warm, err := pool.Boot()
	if err != nil {
		panic(err)
	}
	if _, err := pool.Prewarm(2); err != nil {
		panic(err)
	}
	s := pool.Stats()
	fmt.Println("cold/warm boots:", s.ColdBoots, s.WarmBoots)
	fmt.Println("standbys ready:", s.Standbys)
	fmt.Println("same launch digest:", warm.LaunchDigest == cold.LaunchDigest)
	fmt.Println("warm faster than cold:", warm.Total < cold.Total)
	// Output:
	// cold/warm boots: 1 1
	// standbys ready: 2
	// same launch digest: true
	// warm faster than cold: true
}

// Scheme selects the boot flow. Stock Firecracker is non-confidential:
// nothing is measured, so the launch digest stays zero.
func ExampleConfig_scheme() {
	res, err := severifast.Boot(severifast.Config{
		Scheme: severifast.SchemeStock,
		Kernel: severifast.KernelLupine,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("unmeasured:", res.LaunchDigest == [32]byte{})
	// Output:
	// unmeasured: true
}

// Codec flips the Fig. 5 trade-off: the codec changes the bzImage
// payload bytes, so it changes the launch measurement too.
func ExampleConfig_codec() {
	lz4, err := severifast.ExpectedLaunchDigest(severifast.Config{Codec: severifast.CodecLZ4})
	if err != nil {
		panic(err)
	}
	gzip, err := severifast.ExpectedLaunchDigest(severifast.Config{Codec: severifast.CodecGzip})
	if err != nil {
		panic(err)
	}
	fmt.Println("codecs measure differently:", lz4 != gzip)
	// Output:
	// codecs measure differently: true
}

// Kernel selects the guest kernel configuration (Fig. 8); each
// kernel is its own measured identity.
func ExampleConfig_kernel() {
	lupine, err := severifast.ExpectedLaunchDigest(severifast.Config{Kernel: severifast.KernelLupine})
	if err != nil {
		panic(err)
	}
	aws, err := severifast.ExpectedLaunchDigest(severifast.Config{Kernel: severifast.KernelAWS})
	if err != nil {
		panic(err)
	}
	fmt.Println("kernels measure differently:", lupine != aws)
	// Output:
	// kernels measure differently: true
}

// Attest runs the full report→verify→secret-release exchange after
// boot; the attested total strictly contains the boot.
func ExampleConfig_attestation() {
	res, err := severifast.Boot(severifast.Config{
		Kernel:    severifast.KernelAWS,
		Attest:    true,
		InitrdMiB: 2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("attested:", res.Attestation > 0)
	fmt.Println("attestation extends the total:", res.TotalWithAttest > res.Total)
	// Output:
	// attested: true
	// attestation extends the total: true
}

// Warm start from a snapshot needs the donor's consent to key sharing —
// and is then much faster than a cold boot (the paper's §7 exploration).
func ExampleHost_WarmBoot() {
	host := severifast.NewHost()
	cold, err := host.Boot(severifast.Config{
		Kernel:          severifast.KernelLupine,
		InitrdMiB:       2,
		AllowKeySharing: true,
	})
	if err != nil {
		panic(err)
	}
	snap, err := host.Snapshot(cold)
	if err != nil {
		panic(err)
	}
	warm, err := host.WarmBoot(snap)
	if err != nil {
		panic(err)
	}
	fmt.Println("warm faster than cold:", warm.Total < cold.Total)
	// Output:
	// warm faster than cold: true
}
