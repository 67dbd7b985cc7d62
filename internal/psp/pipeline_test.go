package psp

// Determinism tests for the parallel measurement pipeline: the batch
// digest must be bit-identical to the sequential LAUNCH_UPDATE_DATA
// chain for every worker count (including 1), every region layout, and
// regardless of whether region bytes hit the shared-artifact memo.

import (
	"crypto/sha256"
	"math/rand"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/hostwork"
	"github.com/severifast/severifast/internal/sev"
)

type stagedRegion struct {
	gpa  uint64
	data []byte
	pt   sev.PageType
}

// randomRegions lays out count non-overlapping regions with randomized
// sizes (including sub-page and non-page-multiple sizes). Every third
// region re-stages one shared interned buffer, exercising the artifact
// digest memo alongside fresh unmemoized buffers.
func randomRegions(rng *rand.Rand, count int) []stagedRegion {
	shared := make([]byte, 3*4096+123)
	rng.Read(shared)
	artifact.Intern(shared)
	pts := []sev.PageType{sev.PageNormal, sev.PageNormal, sev.PageVMSA, sev.PageSecrets}
	gpa := uint64(0x1000)
	regions := make([]stagedRegion, 0, count)
	for i := 0; i < count; i++ {
		var data []byte
		if i%3 == 0 {
			data = shared
		} else {
			data = make([]byte, 1+rng.Intn(5*4096))
			rng.Read(data)
		}
		regions = append(regions, stagedRegion{gpa: gpa, data: data, pt: pts[rng.Intn(len(pts))]})
		gpa += (uint64(len(data)) + 2*4096) &^ 4095
	}
	return regions
}

// sequentialDigest measures the regions with per-region
// LAUNCH_UPDATE_DATA calls — the reference serial path.
func sequentialDigest(t *testing.T, regions []stagedRegion) [32]byte {
	t.Helper()
	p := New(costmodel.Unit(), 1)
	mem, ctx := newGuest(t, p)
	for _, r := range regions {
		if err := mem.HostWrite(r.gpa, r.data); err != nil {
			t.Fatal(err)
		}
		if err := ctx.LaunchUpdateData(nil, r.gpa, len(r.data), r.pt); err != nil {
			t.Fatal(err)
		}
	}
	d, err := ctx.LaunchFinish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// batchDigest measures the regions through an UpdateBatch, optionally
// splitting the batch with a mid-stream Close (the batch is reusable).
func batchDigest(t *testing.T, regions []stagedRegion, splitAt int) [32]byte {
	t.Helper()
	p := New(costmodel.Unit(), 1)
	_, ctx := newGuest(t, p)
	b := ctx.NewUpdateBatch()
	for i, r := range regions {
		if i == splitAt {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Stage(nil, r.gpa, r.data, r.pt); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := ctx.LaunchFinish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPipelineDigestDeterministic(t *testing.T) {
	defer hostwork.SetWorkers(0)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + rng.Intn(24)
		regions := randomRegions(rng, count)
		want := sequentialDigest(t, regions)
		for _, workers := range []int{1, 2, 3, 8, 16} {
			hostwork.SetWorkers(workers)
			if got := batchDigest(t, regions, -1); got != want {
				t.Fatalf("seed %d workers %d: batch digest %x != sequential %x", seed, workers, got, want)
			}
			if got := batchDigest(t, regions, count/2); got != want {
				t.Fatalf("seed %d workers %d: split batch digest %x != sequential %x", seed, workers, got, want)
			}
		}
	}
}

func TestPipelineOverlapFlushesPending(t *testing.T) {
	// A staged write overlapping a pending (unhashed) region must not
	// change what the earlier region's deferred hash observes: the batch
	// flushes before the overlapping write lands.
	defer hostwork.SetWorkers(0)
	for _, workers := range []int{1, 4} {
		hostwork.SetWorkers(workers)
		first := make([]byte, 4096+100)
		second := make([]byte, 4096)
		for i := range first {
			first[i] = byte(i)
		}
		for i := range second {
			second[i] = byte(i * 7)
		}

		// Reference: sequential updates hash each region at update time.
		p := New(costmodel.Unit(), 1)
		mem, ctx := newGuest(t, p)
		if err := mem.HostWrite(0x1000, first); err != nil {
			t.Fatal(err)
		}
		if err := ctx.LaunchUpdateData(nil, 0x1000, len(first), sev.PageNormal); err != nil {
			t.Fatal(err)
		}
		if err := mem.HostWrite(0x2000, second); err != nil {
			t.Fatal(err)
		}
		if err := ctx.LaunchUpdateData(nil, 0x2000, len(second), sev.PageNormal); err != nil {
			t.Fatal(err)
		}
		want, err := ctx.LaunchFinish(nil)
		if err != nil {
			t.Fatal(err)
		}

		// Batch: the second region overwrites the tail page of the first.
		p2 := New(costmodel.Unit(), 1)
		_, ctx2 := newGuest(t, p2)
		b := ctx2.NewUpdateBatch()
		if err := b.Stage(nil, 0x1000, first, sev.PageNormal); err != nil {
			t.Fatal(err)
		}
		if err := b.Stage(nil, 0x2000, second, sev.PageNormal); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ctx2.LaunchFinish(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers %d: overlapping batch digest %x != sequential %x", workers, got, want)
		}
	}
}

func TestFoldDigestMatchesExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	initial := InitialDigest(sev.DefaultPolicy(), sev.SNP)
	var metas []RegionMeta
	var contents [][32]byte
	want := initial
	for i := 0; i < 10; i++ {
		data := make([]byte, 1+rng.Intn(8192))
		rng.Read(data)
		gpa := uint64(0x1000 * (i + 1))
		want = ExtendDigest(want, sev.PageNormal, gpa, data)
		metas = append(metas, RegionMeta{PT: sev.PageNormal, GPA: gpa, Len: len(data)})
		contents = append(contents, sha256.Sum256(data))
	}
	if got := FoldDigest(initial, metas, contents); got != want {
		t.Fatalf("FoldDigest %x != ExtendDigest chain %x", got, want)
	}
}
