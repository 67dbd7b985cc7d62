package severifast

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/ovmf"
	"github.com/severifast/severifast/internal/psp"
)

// rowPlan is the VMM's plan for a launch row and the digest chain's start:
// measure.Plan over the row's MeasureConfig, or OVMF's plan for the
// QEMU/OVMF flow, which boots OVMF build 1.
func rowPlan(t *testing.T, cfg Config) ([]measure.Region, [32]byte) {
	t.Helper()
	l, err := cfg.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if l.Scheme == firecracker.SchemeQEMUOVMF {
		hashes, err := l.ComponentHashes()
		if err != nil {
			t.Fatal(err)
		}
		return ovmf.PlanRegions(1, l.Level, hashes), psp.InitialDigest(l.Policy(), l.Level)
	}
	mc, err := l.MeasureConfig()
	if err != nil {
		t.Fatal(err)
	}
	regions, err := measure.Plan(mc)
	if err != nil {
		t.Fatal(err)
	}
	return regions, psp.InitialDigest(mc.Policy, mc.Level)
}

// copiedFold is the launch digest of a plan computed the slow way: every
// region's bytes copied out and hashed by crypto/sha256, no memo read.
func copiedFold(initial [32]byte, regions []measure.Region) [32]byte {
	metas := make([]psp.RegionMeta, len(regions))
	contents := make([][32]byte, len(regions))
	for i, r := range regions {
		metas[i] = psp.RegionMeta{PT: r.Type, GPA: r.GPA, Len: len(r.Data)}
		contents[i] = sha256.Sum256(bytes.Clone(r.Data))
	}
	return psp.FoldDigest(initial, metas, contents)
}

// ownBlob is the staging blob a plan copied its per-launch pages into:
// the one its hash page stages from.
func ownBlob(t *testing.T, regions []measure.Region) *artifact.Buf {
	t.Helper()
	for _, r := range regions {
		if r.Name == "hashes" {
			return r.Art
		}
	}
	t.Fatal("the plan has no hash page")
	return nil
}

// stagePlan stages a plan into fresh guest memory as the VMM does before
// LAUNCH_UPDATE_DATA.
func stagePlan(t *testing.T, regions []measure.Region) *guestmem.Memory {
	t.Helper()
	mem := guestmem.New(256 << 20)
	for _, r := range regions {
		var err error
		if r.Art != nil {
			err = mem.HostWriteArtifact(r.GPA, r.Art, r.ArtOff, len(r.Data))
		} else {
			err = mem.HostWrite(r.GPA, r.Data)
		}
		if err != nil {
			t.Fatalf("staging %s: %v", r.Name, err)
		}
	}
	return mem
}

// TestPlanPointsAtSharedInputsAsCopiesWould is the slow reference for
// plans that point at the shared verifier and firmware bytes instead of
// copying them. For every row of the launch-digest table, the plan is
// staged as built and as bound over fresh copies of every region, where
// nothing is shared: every staged page, every region's digest and the
// launch digest must agree, and the launch digest must equal both a
// crypto/sha256 fold over copied bytes and the golden. Every region's
// pages must stage with provenance to the bytes its plan points at, the
// padded last page of the 13 KiB verifier included, so its digest is a
// memo hit.
func TestPlanPointsAtSharedInputsAsCopiesWould(t *testing.T) {
	golden := readLaunchGolden(t)
	for _, row := range launchRows() {
		t.Run(row.name, func(t *testing.T) {
			regions, initial := rowPlan(t, row.cfg)
			copies := make([]measure.Region, len(regions))
			for i, r := range regions {
				copies[i] = measure.Region{Name: r.Name, GPA: r.GPA, Data: bytes.Clone(r.Data), Type: r.Type}
			}
			copies = measure.BindStagingBlob(copies)
			own, ownCopies := ownBlob(t, regions), ownBlob(t, copies)
			shared := 0
			for i, r := range regions {
				if r.Art != own {
					shared++
				}
				if copies[i].Art != ownCopies {
					t.Fatalf("a plan over fresh copies points %s outside its own blob", r.Name)
				}
			}
			if shared == 0 {
				t.Fatal("the plan copies every region: it points at no shared input")
			}

			got, want := stagePlan(t, regions), stagePlan(t, copies)
			for _, r := range regions {
				lo, hi := r.GPA&^4095, (r.GPA+uint64(len(r.Data))+4095)&^4095
				a, err := got.GuestRead(lo, int(hi-lo), false)
				if err != nil {
					t.Fatal(err)
				}
				b, err := want.GuestRead(lo, int(hi-lo), false)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("the staged pages of %s differ from the copies'", r.Name)
				}
				da, err := got.PlainRangeDigest(r.GPA, len(r.Data))
				if err != nil {
					t.Fatal(err)
				}
				db, err := want.PlainRangeDigest(r.GPA, len(r.Data))
				if err != nil {
					t.Fatal(err)
				}
				if da != db || da != sha256.Sum256(bytes.Clone(r.Data)) {
					t.Errorf("the staged digest of %s differs from the copies' or from crypto/sha256", r.Name)
				}
				// Whole pages, padding included: a last page staged as a
				// copy of the tail, not as the padded page of the bytes the
				// plan points at, resolves to nothing.
				if art, base, err := got.ArtifactRange(lo, int(hi-lo), false); err != nil || art != r.Art || base != r.ArtOff-int(r.GPA-lo) {
					t.Errorf("the pages of %s staged without provenance to the bytes its plan points at (err %v)", r.Name, err)
				}
			}

			d := measure.FoldRegions(initial, regions)
			if d != measure.FoldRegions(initial, copies) || d != copiedFold(initial, regions) {
				t.Fatalf("the plan's launch digest %x differs from the copies' or the crypto/sha256 fold", d[:8])
			}
			if hex.EncodeToString(d[:]) != golden[row.name] {
				t.Fatalf("launch digest %x, golden %s", d[:8], golden[row.name])
			}
		})
	}
}

// TestTamperedSharedInputMovesTheDigest corrupts one byte of the cached
// verifier image and one of the cached firmware volume — the bytes every
// plan points at — and boots: the launch digest must leave its golden for
// the crypto/sha256 fold over the tampered bytes, and must return to the
// golden once the byte is flipped back. A memo that outlived the
// corruption would keep the golden.
func TestTamperedSharedInputMovesTheDigest(t *testing.T) {
	golden := readLaunchGolden(t)
	for _, tc := range []struct {
		row, part string
		shared    func(cfg Config) []byte
	}{
		{"lupine/severifast-lz4/strict", "verifier", func(cfg Config) []byte {
			l, err := cfg.resolve()
			if err != nil {
				t.Fatal(err)
			}
			mc, err := l.MeasureConfig()
			if err != nil {
				t.Fatal(err)
			}
			return mc.Verifier
		}},
		{"lupine/qemu-ovmf/strict", "firmware", func(Config) []byte { return ovmf.Volume(1) }},
	} {
		t.Run(tc.part, func(t *testing.T) {
			var cfg Config
			for _, r := range launchRows() {
				if r.name == tc.row {
					cfg = r.cfg
				}
			}
			part := tc.shared(cfg)
			buf := artifact.Lookup(part[:cap(part)])
			if buf == nil {
				t.Fatalf("the %s bytes are not interned", tc.part)
			}
			boot := func() string {
				t.Helper()
				res, err := Boot(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return hex.EncodeToString(res.LaunchDigest[:])
			}
			off := len(part) - 100 // in the last page: the verifier's is padded
			buf.Corrupt(off, 0x5a)
			tampered := boot()
			regions, initial := rowPlan(t, cfg)
			ref := copiedFold(initial, regions)
			buf.Corrupt(off, 0x5a)
			if tampered == golden[tc.row] {
				t.Fatalf("a tampered %s byte left the launch digest at its golden", tc.part)
			}
			if tampered != hex.EncodeToString(ref[:]) {
				t.Fatalf("tampered %s: boot measured %s, the crypto/sha256 fold over the tampered bytes is %x", tc.part, tampered, ref)
			}
			if restored := boot(); restored != golden[tc.row] {
				t.Fatalf("the %s byte flipped back: digest %s, golden %s", tc.part, restored, golden[tc.row])
			}
		})
	}
}

// TestBootConcurrentPlansOnce: the n guests of one BootConcurrent stage
// one VMM plan, as they share one hash file: every guest's measured hash
// page comes from the same staging blob.
func TestBootConcurrentPlansOnce(t *testing.T) {
	results, err := NewHostSeed(1).BootConcurrent(Config{Kernel: KernelLupine, InitrdMiB: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var blob *artifact.Buf
	for i, r := range results {
		art, _, err := r.machine.Mem.ArtifactRange(measure.GPAHashPage, 4096, true)
		if err != nil || art == nil {
			t.Fatalf("guest %d: the hash page has no staging blob behind it (err %v)", i, err)
		}
		if i == 0 {
			blob = art
		} else if art != blob {
			t.Fatalf("guest %d staged a plan of its own: BootConcurrent planned more than once", i)
		}
	}
}
