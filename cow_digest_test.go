package severifast

// CoW-path digest invariance: the shared-artifact fast paths (interned
// buffers, memoized range digests, zero-copy page aliasing, derived
// decompression caches) are warm after the first boot of an image. The
// second and later boots take those fast paths, and their launch digest
// must be bit-identical to the cold boot's and to the host-side expected
// digest — for every scheme and every SEV level.

import (
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

func TestCoWBootDigestMatchesColdBoot(t *testing.T) {
	schemes := []Scheme{SchemeSEVeriFast, SchemeSEVeriFastVmlinux, SchemeQEMUOVMF}
	levels := []Level{LevelSEV, LevelES, LevelSNP}
	for _, s := range schemes {
		for _, l := range levels {
			cfg := Config{Kernel: KernelLupine, Scheme: s, Level: l, InitrdMiB: 1}
			cold, err := Boot(cfg)
			if err != nil {
				t.Fatalf("%s/%s cold: %v", s, l, err)
			}
			want, err := ExpectedLaunchDigest(cfg)
			if err != nil {
				t.Fatalf("%s/%s expected digest: %v", s, l, err)
			}
			if cold.LaunchDigest != want {
				t.Fatalf("%s/%s: cold digest %x != expected %x", s, l, cold.LaunchDigest[:8], want[:8])
			}
			// Artifact and derived caches are warm now; this boot aliases
			// the canonical buffers instead of copying and re-hashing.
			warm, err := Boot(cfg)
			if err != nil {
				t.Fatalf("%s/%s warm: %v", s, l, err)
			}
			if warm.LaunchDigest != cold.LaunchDigest {
				t.Fatalf("%s/%s: CoW boot digest %x != cold boot digest %x",
					s, l, warm.LaunchDigest[:8], cold.LaunchDigest[:8])
			}
			if warm.InitrdOK != cold.InitrdOK || warm.CPUs != cold.CPUs {
				t.Fatalf("%s/%s: warm guest state %+v differs from cold %+v", s, l, warm, cold)
			}
		}
	}
}

// TestRepeatVmlinuxBootCeiling: the §5 fw_cfg stream is zero-copy. Once a
// process has booted a vmlinux, the next boot of it — on a fresh host, so
// nothing but the process-wide artifact memo carries over — aliases every
// load segment at the byte offset the ELF file keeps it (file 0x120 runs
// at 16 MiB) and proves the streamed hash from provenance: it copies no
// segment (70 / 130 / 184 MiB allocated before the loader could alias a
// shifted run), hashes no byte in the guest or on the host, and measures
// the digest the golden file has held all along. The hash file and the
// launch plan are made once, out of band, as a measured-image cache holds
// them; a plan rebuilt per boot would have its 26 KB staging blob hashed.
func TestRepeatVmlinuxBootCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	golden := readLaunchGolden(t)
	hashed := func() int64 {
		_, c := telemetry.HostStatsSnapshot()
		return c["artifact.digest.bytes_hashed"]
	}
	for _, k := range []Kernel{KernelLupine, KernelAWS, KernelUbuntu} {
		cfg := Config{Kernel: k, Scheme: SchemeSEVeriFastVmlinux, InitrdMiB: 1}
		l, err := cfg.resolve()
		if err != nil {
			t.Fatal(err)
		}
		hashes, err := l.ComponentHashes()
		if err != nil {
			t.Fatal(err)
		}
		l.Hashes = &hashes
		mc, err := l.MeasureConfig()
		if err != nil {
			t.Fatal(err)
		}
		if l.Plan, err = measure.Plan(mc); err != nil {
			t.Fatal(err)
		}
		boot := func(h *Host) *Result {
			t.Helper()
			var res *Result
			h.eng.Go("vm", func(p *sim.Proc) { res, err = h.bootOne(p, *l, false) })
			h.eng.Run()
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			return res
		}
		boot(NewHost())

		host := NewHost()
		hashedBefore := hashed()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res := boot(host)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		_, counters := host.Telemetry().HostStats()
		allocKiB := (after.TotalAlloc - before.TotalAlloc) >> 10
		t.Logf("%s: second boot %v host time, %d KiB allocated, %d memoised range digests",
			k, took, allocKiB, counters["guestmem.digest.memo"])
		if allocKiB >= 1024 {
			t.Errorf("%s: second boot allocated %d KiB, ceiling 1024 — a load segment is copied again", k, allocKiB)
		}
		if n := counters["guestmem.digest.streamed_bytes"]; n != 0 {
			t.Errorf("%s: second boot streamed %d bytes through SHA-256 in the guest, want 0", k, n)
		}
		if n := hashed() - hashedBefore; n != 0 {
			t.Errorf("%s: second boot hashed %d artifact bytes, want 0 — the digest memo went cold", k, n)
		}
		if got, want := hex.EncodeToString(res.LaunchDigest[:]), golden[string(k)+"/severifast-vmlinux/strict"]; got != want {
			t.Errorf("%s: launch digest %s, golden %q", k, got, want)
		}
	}
}
