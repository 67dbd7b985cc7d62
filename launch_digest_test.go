package severifast

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

const launchDigestGolden = "testdata/launch_digests.golden"

// launchRow is one launch description of the digest table.
type launchRow struct {
	name string
	cfg  Config
}

// launchRows is the table TestExpectedLaunchDigestMatchesBoot walks:
// every kernel under every measured flow with the strict and the
// key-sharing policy, plus one row per remaining Config field that feeds
// the measurement. A 1 MiB initrd keeps the whole table to seconds.
func launchRows() []launchRow {
	flows := []struct {
		name string
		cfg  Config
	}{
		{"severifast-lz4", Config{Scheme: SchemeSEVeriFast, Codec: CodecLZ4}},
		{"severifast-gzip", Config{Scheme: SchemeSEVeriFast, Codec: CodecGzip}},
		{"severifast-vmlinux", Config{Scheme: SchemeSEVeriFastVmlinux}},
		{"qemu-ovmf", Config{Scheme: SchemeQEMUOVMF}},
	}
	var rows []launchRow
	for _, k := range []Kernel{KernelLupine, KernelAWS, KernelUbuntu} {
		for _, f := range flows {
			for _, sharing := range []bool{false, true} {
				cfg := f.cfg
				cfg.Kernel, cfg.InitrdMiB, cfg.AllowKeySharing = k, 1, sharing
				policy := "strict"
				if sharing {
					policy = "sharing"
				}
				rows = append(rows, launchRow{fmt.Sprintf("%s/%s/%s", k, f.name, policy), cfg})
			}
		}
	}
	base := Config{Kernel: KernelLupine, InitrdMiB: 1}
	for _, v := range []struct {
		name string
		set  func(*Config)
	}{
		{"preencrypt-page-tables", func(c *Config) { c.PreEncryptPageTables = true }},
		{"verifier-seed-7", func(c *Config) { c.VerifierSeed = 7 }},
		{"vcpus-2", func(c *Config) { c.VCPUs = 2 }},
		{"level-sev", func(c *Config) { c.Level = LevelSEV }},
		{"level-sev-es", func(c *Config) { c.Level = LevelES }},
	} {
		cfg := base
		v.set(&cfg)
		rows = append(rows, launchRow{"lupine/severifast-lz4/" + v.name, cfg})
	}
	return rows
}

func readLaunchGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(launchDigestGolden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		golden[name] = digest
	}
	return golden
}

// TestExpectedLaunchDigestMatchesBoot holds the §4.2 tool, the PSP and a
// recorded literal to one value per launch description:
// ExpectedLaunchDigest == golden == the digest an actual Boot measures.
// The golden was recorded before the launch description had a single
// owner, so the tool is pinned against history, not against itself.
func TestExpectedLaunchDigestMatchesBoot(t *testing.T) {
	rows := launchRows()
	var golden map[string]string
	if !*updateGolden {
		golden = readLaunchGolden(t)
		if len(golden) != len(rows) {
			t.Errorf("golden holds %d rows, table has %d", len(golden), len(rows))
		}
	}
	var recorded strings.Builder
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			want, err := ExpectedLaunchDigest(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Boot(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.LaunchDigest != want {
				t.Fatalf("boot measured %x, tool expects %x", res.LaunchDigest[:8], want[:8])
			}
			got := hex.EncodeToString(want[:])
			fmt.Fprintf(&recorded, "%s %s\n", row.name, got)
			if golden != nil && golden[row.name] != got {
				t.Errorf("digest %s, golden %q (re-run with -update-golden if intentional)", got, golden[row.name])
			}
		})
	}
	// Launches with no digest: the tool must refuse exactly those Boot
	// refuses or never measures, with the launch's own error.
	for _, row := range []struct {
		name string
		cfg  Config
		want string // substring of the tool's error
	}{
		{"stock", Config{Scheme: SchemeStock}, "scheme stock-fc has no SEV kernel"},
		{"stock/sev-snp", Config{Scheme: SchemeStock, Level: LevelSNP}, "stock scheme cannot boot a sev-snp guest"},
		{"stock/sev", Config{Scheme: SchemeStock, Level: LevelSEV}, "stock scheme cannot boot a sev guest"},
		{"severifast/none", Config{Scheme: SchemeSEVeriFast, Level: LevelNone}, "requires an SEV level"},
		{"severifast-vmlinux/none", Config{Scheme: SchemeSEVeriFastVmlinux, Level: LevelNone}, "requires an SEV level"},
		{"qemu-ovmf/none", Config{Scheme: SchemeQEMUOVMF, Level: LevelNone}, "models SEV boots"},
	} {
		t.Run("refused/"+row.name, func(t *testing.T) {
			row.cfg.Kernel, row.cfg.InitrdMiB = KernelLupine, 1
			_, toolErr := ExpectedLaunchDigest(row.cfg)
			res, bootErr := Boot(row.cfg)
			if measured := bootErr == nil && res.LaunchDigest != ([32]byte{}); measured {
				t.Fatalf("row is not a refusal: Boot measured %x", res.LaunchDigest[:8])
			}
			if toolErr == nil || !strings.Contains(toolErr.Error(), row.want) {
				t.Fatalf("ExpectedLaunchDigest error %v, want %q", toolErr, row.want)
			}
			if bootErr != nil && bootErr.Error() != toolErr.Error() {
				t.Errorf("tool refuses with %q, Boot with %q", toolErr, bootErr)
			}
		})
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(launchDigestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(launchDigestGolden, []byte(recorded.String()), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
}
