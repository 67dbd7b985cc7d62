package firecracker

import (
	"bytes"
	"strings"
	"testing"

	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/verifier"
)

// TestLaunchDescriptionAgreesWithBoot: for every scheme × codec, what the
// config says it stages, hashes and measures is what an in-band boot of
// it (Hashes and Plan nil, so Boot hashes and plans for itself) reports.
// CodecNone takes the bzimage.Build fallback in KernelImage.
func TestLaunchDescriptionAgreesWithBoot(t *testing.T) {
	art := lupineArtifacts(t)
	preset := kernelgen.Lupine()
	uncompressed, err := bzimage.Build(art.VMLinux, bzimage.CodecNone, preset.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Built here, not read off art: the lazily built image is what is checked.
	gz, err := bzimage.Build(art.VMLinux, bzimage.CodecGzip, preset.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		scheme Scheme
		codec  bzimage.Codec
		image  []byte
		kind   verifier.KernelKind
	}{
		{"bz/default-lz4", SchemeSEVeriFastBz, "", art.BzImageLZ4, verifier.KindBzImage},
		{"bz/gzip", SchemeSEVeriFastBz, bzimage.CodecGzip, gz, verifier.KindBzImage},
		{"bz/none-fallback", SchemeSEVeriFastBz, bzimage.CodecNone, uncompressed, verifier.KindBzImage},
		{"vmlinux", SchemeSEVeriFastVmlinux, "", art.VMLinux, verifier.KindVmlinux},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Preset: preset, Artifacts: art, Initrd: testInitrd(t),
				Level: sev.SNP, Scheme: tc.scheme, Codec: tc.codec,
			}
			image, kind, err := cfg.KernelImage()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(image, tc.image) || kind != tc.kind {
				t.Fatalf("KernelImage: %d bytes kind %v, want %d bytes kind %v", len(image), kind, len(tc.image), tc.kind)
			}
			hashes, err := cfg.ComponentHashes()
			if err != nil {
				t.Fatal(err)
			}
			if want := measure.HashComponents(tc.image, cfg.Initrd, preset.Cmdline); hashes != want {
				t.Fatal("ComponentHashes does not hash the staged image, the initrd and the preset cmdline")
			}
			mc, err := cfg.MeasureConfig()
			if err != nil {
				t.Fatal(err)
			}
			if mc.Hashes != hashes || mc.VCPUs != 1 || mc.MemSize != 256<<20 || mc.Level != sev.SNP ||
				mc.Policy != sev.DefaultPolicy() || !bytes.Equal(mc.Verifier, verifier.Image(1)) {
				t.Fatalf("MeasureConfig does not carry the defaults Boot launches with: %+v", mc)
			}
			want, err := cfg.ExpectedDigest()
			if err != nil {
				t.Fatal(err)
			}
			res, err := runBoot(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.LaunchDigest != want {
				t.Fatalf("PSP measured %x, ExpectedDigest %x", res.LaunchDigest[:8], want[:8])
			}
			// The hash file is an input: out-of-band hashes change nothing.
			cfg.Hashes = &hashes
			if again, err := cfg.ExpectedDigest(); err != nil || again != want {
				t.Fatalf("ExpectedDigest with the hash file supplied: %x, %v", again[:8], err)
			}
		})
	}
}

// TestLaunchDescriptionRefusals: a launch Boot refuses, or never measures,
// has no kernel image, hash file, measure.Config or digest — with the
// error the launch gives.
func TestLaunchDescriptionRefusals(t *testing.T) {
	art := lupineArtifacts(t)
	preset := kernelgen.Lupine()
	hashes := measure.HashComponents(art.BzImageLZ4, nil, preset.Cmdline)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"stock", Config{Preset: preset, Artifacts: art, Scheme: SchemeStock}, "scheme stock-fc has no SEV kernel"},
		{"stock-with-hashes", Config{Preset: preset, Artifacts: art, Scheme: SchemeStock, Hashes: &hashes}, "scheme stock-fc has no SEV kernel"},
		{"stock-snp", Config{Preset: preset, Artifacts: art, Scheme: SchemeStock, Level: sev.SNP}, "stock scheme cannot boot a sev-snp guest"},
		{"severifast-none", Config{Preset: preset, Artifacts: art, Scheme: SchemeSEVeriFastBz, Hashes: &hashes}, "requires an SEV level"},
		{"no-image", Config{Preset: preset, Artifacts: &kernelgen.Artifacts{VMLinux: art.VMLinux}, Scheme: SchemeSEVeriFastBz, Level: sev.SNP},
			"artifacts carry no kernel image"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.MeasureConfig(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("MeasureConfig: %v, want %q", err, tc.want)
			}
			if _, err := tc.cfg.ExpectedDigest(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ExpectedDigest: %v, want %q", err, tc.want)
			}
			hashless := tc.cfg
			hashless.Hashes = nil
			if _, err := hashless.ComponentHashes(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ComponentHashes: %v, want %q", err, tc.want)
			}
			// Boot gives the same refusal, except for plain stock, which
			// boots fine and is simply never measured.
			res, err := runBoot(t, tc.cfg)
			if tc.cfg.Scheme == SchemeStock && tc.cfg.Level == sev.None {
				if err != nil || res.LaunchDigest != ([32]byte{}) {
					t.Errorf("stock boot: err %v, digest %x", err, res.LaunchDigest[:8])
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Boot: %v, want %q", err, tc.want)
			}
		})
	}
}

// TestLaunchPolicyTable pins the one policy body against literals, so it
// is not only ever compared with itself.
func TestLaunchPolicyTable(t *testing.T) {
	for _, tc := range []struct {
		level   sev.Level
		sharing bool
		want    sev.Policy
	}{
		{sev.SEV, false, sev.Policy{NoDebug: true, NoKeySharing: true, MinABIMajor: 1}},
		{sev.SEV, true, sev.Policy{NoDebug: true, MinABIMajor: 1}},
		{sev.ES, false, sev.Policy{NoDebug: true, NoKeySharing: true, ESRequired: true, MinABIMajor: 1}},
		{sev.ES, true, sev.Policy{NoDebug: true, ESRequired: true, MinABIMajor: 1}},
		{sev.SNP, false, sev.Policy{NoDebug: true, NoKeySharing: true, ESRequired: true, MinABIMajor: 1}},
		{sev.SNP, true, sev.Policy{NoDebug: true, ESRequired: true, MinABIMajor: 1}},
	} {
		if got := LaunchPolicy(tc.level, tc.sharing); got != tc.want {
			t.Errorf("LaunchPolicy(%v, sharing=%v) = %+v, want %+v", tc.level, tc.sharing, got, tc.want)
		}
	}
}
