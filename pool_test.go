package severifast_test

import (
	"strings"
	"testing"

	severifast "github.com/severifast/severifast"
)

func poolConfig() severifast.Config {
	return severifast.Config{Kernel: severifast.KernelLupine, Seed: 42, InitrdMiB: 2}
}

func TestPoolColdThenWarm(t *testing.T) {
	pool, err := severifast.NewPool(poolConfig(), severifast.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cold, err := pool.Boot()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := pool.Boot()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Total >= cold.Total {
		t.Fatalf("warm boot %v not faster than cold %v", warm.Total, cold.Total)
	}
	if warm.LaunchDigest != cold.LaunchDigest {
		t.Fatal("forked boot does not carry the cold boot's launch digest")
	}
	if cold.LaunchDigest == [32]byte{} {
		t.Fatal("cold boot was not measured")
	}
	s := pool.Stats()
	if s.ColdBoots != 1 || s.WarmBoots != 1 || s.Boots != 2 {
		t.Fatalf("stats %+v, want 1 cold + 1 warm", s)
	}
	if s.WarmP50 >= s.ColdP50 || s.WarmP50 <= 0 {
		t.Fatalf("warm p50 %v vs cold p50 %v", s.WarmP50, s.ColdP50)
	}
}

func TestPoolPrewarm(t *testing.T) {
	pool, err := severifast.NewPool(poolConfig(), severifast.PoolOptions{WarmPoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Prewarm on an unseeded pool pays one measured cold boot first,
	// then forks standbys up to the pool cap.
	added, err := pool.Prewarm(5)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("prewarm added %d standbys, want 2 (pool cap)", added)
	}
	s := pool.Stats()
	if s.ColdBoots != 1 || s.Standbys != 2 {
		t.Fatalf("stats %+v, want 1 seeding cold boot and 2 standbys", s)
	}
	// Boots pop standbys before forking inline.
	if _, err := pool.Boot(); err != nil {
		t.Fatal(err)
	}
	s = pool.Stats()
	if s.Standbys != 1 || s.WarmBoots != 1 {
		t.Fatalf("stats %+v after popping a standby", s)
	}
}

// TestPoolAttested: a pool with Attest runs the key-release exchange on
// every boot of a kernel with networking, and, like Host.Boot, skips it
// for Lupine, which has none.
func TestPoolAttested(t *testing.T) {
	for _, tc := range []struct {
		kernel severifast.Kernel
		want   int
	}{
		{severifast.KernelAWS, 3},
		{severifast.KernelLupine, 0},
	} {
		cfg := poolConfig()
		cfg.Kernel, cfg.Attest = tc.kernel, true
		pool, err := severifast.NewPool(cfg, severifast.PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := pool.Boot(); err != nil {
				t.Fatal(err)
			}
		}
		if s := pool.Stats(); s.Attested != tc.want || s.Failed != 0 {
			t.Errorf("%s: stats %+v, want %d boots attested and none failed", tc.kernel, s, tc.want)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolRejections: a pool launches Firecracker guests from its
// measured-image cache, so it refuses QEMU/OVMF, unmeasured launches and
// in-band hashing.
func TestPoolRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*severifast.Config)
		want string
	}{
		{"qemu-ovmf", func(c *severifast.Config) { c.Scheme = severifast.SchemeQEMUOVMF }, "Pool does not support"},
		{"stock", func(c *severifast.Config) { c.Scheme = severifast.SchemeStock }, "measured guests only"},
		{"in-band hashing", func(c *severifast.Config) { c.InBandHashing = true }, "InBandHashing"},
	} {
		cfg := poolConfig()
		tc.set(&cfg)
		if _, err := severifast.NewPool(cfg, severifast.PoolOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: pool error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestPoolDigestIsTheKeySharingDigest: an encrypted pool launches with the
// key-sharing policy, so every boot, cold or forked, measures what
// ExpectedLaunchDigest says for the pool's Config with AllowKeySharing set,
// whatever else the Config asks of the launch.
func TestPoolDigestIsTheKeySharingDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*severifast.Config)
	}{
		{"severifast", func(*severifast.Config) {}},
		{"severifast-vmlinux", func(c *severifast.Config) { c.Scheme = severifast.SchemeSEVeriFastVmlinux }},
		{"gzip", func(c *severifast.Config) { c.Codec = severifast.CodecGzip }},
		{"sev-es", func(c *severifast.Config) { c.Level = severifast.LevelES }},
		{"pre-encrypt page tables", func(c *severifast.Config) { c.PreEncryptPageTables = true }},
		{"verifier seed", func(c *severifast.Config) { c.VerifierSeed = 7 }},
		{"two vcpus", func(c *severifast.Config) { c.VCPUs = 2 }},
	} {
		cfg := poolConfig()
		tc.set(&cfg)
		sharing := cfg
		sharing.AllowKeySharing = true
		want, err := severifast.ExpectedLaunchDigest(sharing)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := severifast.NewPool(cfg, severifast.PoolOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, tier := range []string{"cold", "forked"} {
			res, err := pool.Boot()
			if err != nil {
				t.Fatalf("%s: %s boot: %v", tc.name, tier, err)
			}
			if res.LaunchDigest != want {
				t.Errorf("%s: %s boot measured %x, expected %x", tc.name, tier, res.LaunchDigest[:8], want[:8])
			}
		}
		if s := pool.Stats(); s.ColdBoots != 1 || s.WarmBoots != 1 {
			t.Errorf("%s: stats %+v, want 1 cold + 1 forked", tc.name, s)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolClose(t *testing.T) {
	pool, err := severifast.NewPool(poolConfig(), severifast.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := pool.Boot(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Boot after Close = %v, want closed error", err)
	}
	if _, err := pool.Prewarm(1); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Prewarm after Close = %v, want closed error", err)
	}
}
