package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"time"

	"github.com/severifast/severifast/internal/cluster"
	"github.com/severifast/severifast/internal/kernelgen"
)

// inputs is everything a scenario receives: generated from the seed by
// the repository's own seeded generators, and nothing that names the
// workload. The same seed gives the same inputs.
type inputs struct {
	seed int64
	// boots is the round's operation count (arrivals, sequential boots).
	boots  int
	images int
	hosts  int
	// scale is the divisor applied to the pinned sizes (1 = full size).
	scale int
	// memMiB is the guest memory size: 256 MiB plus a few MiB drawn from
	// the seed, so that simulated times differ between seeds in their low
	// digits even on workloads with no arrival schedule.
	memMiB int
	// initrdBytes is the size of each generated initrd; initrds holds one
	// per image, contents drawn from seed+index.
	initrdBytes int
	initrds     [][]byte
	// kernels are the presets the workload boots; generating them is
	// set-up, done once per process before anything else.
	kernels []kernelgen.Preset
	// gap is the mean inter-arrival gap of the open-loop schedule and
	// arrivals the generated cluster trace, where the workload has one.
	gap      time.Duration
	trace    cluster.TraceSpec
	arrivals []cluster.Arrival
}

func (in *inputs) memSize() uint64 { return uint64(in.memMiB) << 20 }

// digest fingerprints the generated inputs.
func (in *inputs) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(in.seed)
	put(int64(in.boots))
	put(int64(in.memMiB))
	for _, rd := range in.initrds {
		s := sha256.Sum256(rd)
		h.Write(s[:])
	}
	for _, a := range in.arrivals {
		put(int64(a.At))
		put(int64(a.Tenant))
		put(int64(a.Image))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func atLeast(min, v int) int {
	if v < min {
		return min
	}
	return v
}

// makeInputs sizes the workload for the given divisor and draws its
// inputs from the seed.
func makeInputs(w Workload, seed int64, scale int) *inputs {
	in := &inputs{
		seed:   seed,
		scale:  scale,
		boots:  atLeast(1, w.Size/scale),
		images: w.Images,
		hosts:  w.Hosts,
		// The top three bits of a multiplicative hash: neighbouring
		// seeds land on different sizes.
		memMiB:  256 + int(uint64(seed)*0x9E3779B97F4A7C15>>61),
		kernels: []kernelgen.Preset{kernelgen.Lupine()},
	}
	switch w.Name {
	case "cold_cached":
		in.initrdBytes = 4 << 20
		// 2 ms between arrivals against ~28 ms of PSP time per cold boot:
		// the single PSP queue of Fig. 12 builds and drains.
		in.gap = 2 * time.Millisecond
	case "warm_fork":
		// The Pool builds its own initrd from Config.Seed and InitrdMiB.
	case "image_churn":
		in.initrdBytes = 512 << 10
		in.images = atLeast(1, w.Images/scale)
		in.boots = in.images * churnBootsPerImage
	case "cluster_zipf":
		in.initrdBytes = 512 << 10
		in.images = atLeast(4, w.Images*4/(scale+3))
		in.gap = 20 * time.Millisecond
		in.trace = cluster.TraceSpec{Kind: cluster.TraceZipf, Arrivals: in.boots, MeanGap: in.gap,
			Images: in.images, Tenants: 4, ZipfS: 1.2, Seed: seed}
	case "cluster_storm":
		in.initrdBytes = 512 << 10
		in.images = atLeast(2, w.Images*4/(scale+3))
		in.gap = stormGap
		// The arrival trace is part of this scenario, like the storm
		// instants and the drift order: 512 arrivals leave five samples
		// beyond p99, and a tail that thin moves 35-47 % from one trace to
		// the next, more than any bound may be. The seed still draws the
		// image contents, the identities and the guest memory size.
		in.trace = cluster.TraceSpec{Kind: cluster.TraceZipf, Arrivals: in.boots, MeanGap: in.gap,
			Images: in.images, Tenants: 3, ZipfS: 1.2, Seed: stormTraceSeed}
	case "paper_oneshot":
		// The paper's 16 MiB attestation initrd at full size.
		in.initrdBytes = atLeast(1, kernelgen.DefaultInitrdSize>>20/scale) << 20
		in.images = 1
		in.kernels = kernelgen.Presets()
	}
	if in.initrdBytes > 0 {
		for i := 0; i < in.images; i++ {
			in.initrds = append(in.initrds, kernelgen.BuildInitrd(seed+int64(i), in.initrdBytes))
		}
	}
	if in.trace.Arrivals > 0 {
		arr, err := in.trace.Generate()
		if err != nil {
			// The specs above are fixed and valid; only a bug reaches this.
			panic("bench: generating trace: " + err.Error())
		}
		in.arrivals = arr
	}
	return in
}
