package severifast_test

import (
	"strings"
	"testing"

	severifast "github.com/severifast/severifast"
)

func poolConfig() severifast.Config {
	cfg := severifast.NewConfig(
		severifast.WithKernel(severifast.KernelLupine),
		severifast.WithSeed(42),
	)
	cfg.InitrdMiB = 2
	return cfg
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

func TestPoolAttested(t *testing.T) {
	cfg := poolConfig().With(severifast.WithAttestation())
	pool, err := severifast.NewPool(cfg, severifast.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 3; i++ {
		if _, err := pool.Boot(); err != nil {
			t.Fatal(err)
		}
	}
	s := pool.Stats()
	if s.Attested != 3 || s.Failed != 0 {
		t.Fatalf("stats %+v, want every boot attested", s)
	}
}

func TestPoolRejections(t *testing.T) {
	if _, err := severifast.NewPool(severifast.NewConfig(
		severifast.WithScheme(severifast.SchemeQEMUOVMF),
	), severifast.PoolOptions{}); err == nil || !strings.Contains(err.Error(), "Pool does not support") {
		t.Fatalf("qemu-ovmf pool error = %v", err)
	}
	if _, err := severifast.NewPool(severifast.NewConfig(
		severifast.WithCodec(severifast.CodecGzip),
	), severifast.PoolOptions{}); err == nil || !strings.Contains(err.Error(), "CodecLZ4 only") {
		t.Fatalf("gzip pool error = %v", err)
	}
	// Fields the fleet orchestrator cannot launch with are refused, not
	// silently dropped for the design default.
	for _, tc := range []struct {
		name string
		set  func(*severifast.Config)
		want string
	}{
		{"stock", func(c *severifast.Config) { c.Scheme = severifast.SchemeStock }, "measured guests only"},
		{"pre-encrypt page tables", func(c *severifast.Config) { c.PreEncryptPageTables = true }, "PreEncryptPageTables"},
		{"verifier seed", func(c *severifast.Config) { c.VerifierSeed = 7 }, "VerifierSeed 7"},
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
// ExpectedLaunchDigest says for the pool's Config with AllowKeySharing set.
func TestPoolDigestIsTheKeySharingDigest(t *testing.T) {
	for _, scheme := range []severifast.Scheme{severifast.SchemeSEVeriFast, severifast.SchemeSEVeriFastVmlinux} {
		cfg := poolConfig().With(severifast.WithScheme(scheme))
		sharing := cfg
		sharing.AllowKeySharing = true
		want, err := severifast.ExpectedLaunchDigest(sharing)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := severifast.NewPool(cfg, severifast.PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range []string{"cold", "forked"} {
			res, err := pool.Boot()
			if err != nil {
				t.Fatal(err)
			}
			if res.LaunchDigest != want {
				t.Errorf("%s: %s boot measured %x, expected %x", scheme, tier, res.LaunchDigest[:8], want[:8])
			}
		}
		if s := pool.Stats(); s.ColdBoots != 1 || s.WarmBoots != 1 {
			t.Errorf("%s: stats %+v, want 1 cold + 1 forked", scheme, s)
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

// TestConfigOptions: NewConfig is pure sugar over the struct literal and
// With derives copies without mutating the base.
func TestConfigOptions(t *testing.T) {
	got := severifast.NewConfig(
		severifast.WithScheme(severifast.SchemeSEVeriFastVmlinux),
		severifast.WithCodec(severifast.CodecGzip),
		severifast.WithKernel(severifast.KernelAWS),
		severifast.WithLevel(severifast.LevelES),
		severifast.WithAttestation(),
		severifast.WithSeed(7),
	)
	want := severifast.Config{
		Scheme: severifast.SchemeSEVeriFastVmlinux,
		Codec:  severifast.CodecGzip,
		Kernel: severifast.KernelAWS,
		Level:  severifast.LevelES,
		Attest: true,
		Seed:   7,
	}
	if got != want {
		t.Fatalf("NewConfig = %+v, want %+v", got, want)
	}
	base := severifast.NewConfig(severifast.WithKernel(severifast.KernelLupine))
	derived := base.With(severifast.WithKernel(severifast.KernelAWS))
	if base.Kernel != severifast.KernelLupine || derived.Kernel != severifast.KernelAWS {
		t.Fatalf("With mutated the base: base=%q derived=%q", base.Kernel, derived.Kernel)
	}
}
