package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/lz4"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
	"github.com/severifast/severifast/internal/trace"
	"github.com/severifast/severifast/internal/verifier"
)

// A probe times N calls of one public function on the workload's own
// inputs and reports the median. Counts are small where a call leaves
// memory behind (every fork export interns a new blob for good).
const (
	probeFew  = 3
	probeSome = 16
	probeMany = 64
)

// probe runs fn n times under a span each and returns the median. prep,
// when not nil, runs untimed before every call.
func probe(tr *Tracer, name string, n int, prep, fn func() error) (time.Duration, error) {
	samples := make(trace.Series, 0, n)
	for i := 0; i < n; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		sp := tr.Begin(name)
		t := time.Now()
		err := fn()
		d := time.Since(t)
		tr.End(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		samples = append(samples, d)
	}
	return samples.Percentile(50), nil
}

// collectLayers assembles the traced round's per-layer metrics: what the
// scenario read from the modules' recorders, what the spans say, what
// the scheduler tracer counted, and the probes.
func collectLayers(e *env, in *inputs, out *outcome) (map[string]float64, error) {
	layer := map[string]float64{}
	for k, v := range out.layer {
		layer[k] = v
	}
	spans := e.tr.Spans()
	rows := SelfTimes(spans)

	// Spans around the calls the scenario made.
	med := func(name string) time.Duration { return trace.Series(durations(spans, name)).Percentile(50) }
	p99 := func(name string) time.Duration { return trace.Series(durations(spans, name)).Percentile(99) }
	layer["severifast.pool_boot_us_p50"] = us(med("severifast.Pool.Boot"))
	layer["severifast.pool_boot_us_p99"] = us(p99("severifast.Pool.Boot"))
	layer["severifast.boot_oneshot_ms_p50"] = ms(med("severifast.Boot"))
	layer["severifast.new_pool_ms"] = ms(med("severifast.NewPool"))
	layer["fleet.register_image_us_p50"] = us(med("fleet.RegisterImage"))
	if d := med("cluster.RegisterImage"); d > 0 {
		// A cluster registration registers the image once per host.
		layer["fleet.register_image_us_p50"] = us(d) / float64(in.hosts)
	}
	layer["fleet.serve_cold_ms_p50"] = ms(med("fleet.Serve.cold"))
	layer["fleet.serve_warm_us_p50"] = us(med("fleet.Serve.warm"))
	_, fleetSelf, _ := selfOf(rows, "fleet.Run")
	layer["fleet.run_self_ms"] = ms(fleetSelf)
	playTotal, _, _ := selfOf(rows, "cluster.Play")
	runTotal, runSelf, _ := selfOf(rows, "cluster.Run")
	sumTotal, _, _ := selfOf(rows, "cluster.Summarize")
	placeTotal, _, placeCalls := selfOf(rows, "cluster.Policy.Place")
	layer["cluster.play_ms"] = ms(playTotal)
	layer["cluster.run_ms"] = ms(runTotal)
	layer["cluster.run_self_ms"] = ms(runSelf)
	layer["cluster.summarize_ms"] = ms(sumTotal)
	layer["cluster.place_calls"] = float64(placeCalls)
	layer["cluster.place_busy_ms"] = ms(placeTotal)
	layer["cluster.place_us_p50"] = us(med("cluster.Policy.Place"))
	chalTotal, _, _ := selfOf(rows, "kbs.Challenge")
	redTotal, _, _ := selfOf(rows, "kbs.Redeem")
	layer["kbs.challenge_us_p50"] = us(med("kbs.Challenge"))
	layer["kbs.redeem_us_p50"] = us(med("kbs.Redeem"))
	layer["kbs.redeem_us_p99"] = us(p99("kbs.Redeem"))
	layer["kbs.busy_ms"] = ms(chalTotal + redTotal)
	kgTotal, _, _ := selfOf(rows, "kernelgen.Cached")
	layer["kernelgen.cached_build_ms"] = ms(kgTotal)

	fx, err := runProbes(e, in, out, layer)
	if err != nil {
		return nil, err
	}

	// The modules' host-time recorders: every host of the round, the
	// facade hosts, and the process-wide one the artifact table uses. A
	// workload driven through the Pool facade exposes no host, so there
	// the probe fixture's host — the same image forked the same way —
	// stands in.
	stages, counters := map[string]int64{}, map[string]int64{}
	merge := func(s, c map[string]int64) {
		for k, v := range s {
			stages[k] += v
		}
		for k, v := range c {
			counters[k] += v
		}
	}
	for _, r := range e.recs {
		merge(r.Snapshot())
	}
	for _, h := range e.facade {
		merge(h.stages, h.counters)
	}
	if e.noHosts() {
		merge(fx.stats.stages, fx.stats.counters)
	}
	merge(nil, e.global)
	layer["psp.pipeline_busy_ms"] = float64(stages["psp.pipeline"]) / 1e6
	layer["psp.pipeline_calls"] = float64(stages["psp.pipeline.calls"])
	layer["psp.fold_prefix_hit_ratio"] = ratio64(counters["psp.fold.prefix_hits"], counters["psp.fold.prefix_misses"])
	layer["guestmem.digest_memo_hits"] = float64(counters["guestmem.digest.memo"])
	layer["guestmem.digest_streamed_bytes"] = float64(counters["guestmem.digest.streamed_bytes"])
	layer["guestmem.view_hits"] = float64(counters["guestmem.view.hit"])
	layer["guestmem.aliased_pages"] = float64(counters["guestmem.fork.aliased_pages"])
	layer["artifact.digest_hit_ratio"] = ratio64(counters["artifact.digest.hit"], counters["artifact.digest.miss"])
	layer["artifact.derived_hit_ratio"] = ratio64(counters["artifact.derived.hit"], counters["artifact.derived.miss"])
	layer["artifact.interned_bytes"] = float64(counters["artifact.interned_bytes"])
	layer["artifact.digest_bytes_hashed"] = float64(counters["artifact.digest.bytes_hashed"])

	// The scheduler tracer, in simulated time.
	st := e.sim
	layer["sim.wait_intervals"] = float64(st.waits)
	layer["sim.service_intervals"] = float64(st.services)
	layer["sim.idle_intervals"] = float64(st.idles)
	layer["psp.queue_wait_virtual_ms_p50"] = ms(trace.Series(st.pspWaits).Percentile(50))
	layer["psp.service_virtual_ms_total"] = ms(st.pspService)

	layer["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	// Every metric of the contract is reported on every workload: a layer
	// that is not on this workload's path reads 0.
	for _, m := range PerLayer {
		if _, ok := layer[m.Name]; !ok {
			layer[m.Name] = 0
		}
	}
	return layer, nil
}

func ratio64(hit, miss int64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}

// probeFixture is a standalone orchestrator serving the workload's own
// image, built after the timed region so the probes have a measured
// guest, a captured fork and a sealed snapshot to call into.
type probeFixture struct {
	eng   *sim.Engine
	host  *kvm.Host
	orch  *fleet.Orchestrator
	img   *fleet.Image
	guest *kvm.Machine
	// stats is the host's recorder once the probes are done.
	stats hostStats
}

// inProc runs fn on a fresh simulation process of the fixture's engine.
func (fx *probeFixture) inProc(fn func(p *sim.Proc) error) error {
	var err error
	fx.eng.Go("probe", func(p *sim.Proc) { err = fn(p) })
	fx.eng.Run()
	return err
}

func (fx *probeFixture) serve() error {
	var bootErr error
	err := fx.inProc(func(p *sim.Proc) error {
		fx.orch.Serve(p, fleet.Request{Tenant: "t0", Image: fx.img, Done: func(_ *sim.Proc, _ fleet.Tier, err error) { bootErr = err }})
		return nil
	})
	if err != nil {
		return err
	}
	return bootErr
}

func newProbeFixture(e *env, f *fixture) (*probeFixture, error) {
	fx := &probeFixture{eng: sim.NewEngine()}
	if e.noHosts() {
		// Only a facade-driven round borrows the fixture's scheduler
		// counts; elsewhere they would double what the round itself
		// counted.
		fx.eng.SetTracer(e.sim)
	}
	fx.host = kvm.NewHost(fx.eng, costmodel.Default(), 1)
	fx.orch = fleet.New(fx.eng, fx.host, fleet.Config{
		Standalone: true,
		EnableWarm: f.warm,
		MemSize:    f.spec.MemSize,
		OnServed:   func(_ *sim.Proc, m *kvm.Machine, _ fleet.Tier) { fx.guest = m },
	})
	var err error
	if fx.img, err = fx.orch.RegisterImage("probe", f.preset, f.spec.Initrd); err != nil {
		return nil, err
	}
	if err := fx.serve(); err != nil {
		return nil, err
	}
	if fx.guest == nil || fx.guest.Launch == nil {
		return nil, fmt.Errorf("probe fixture: cold boot served no measured guest")
	}
	return fx, nil
}

// runProbes times the layers' public functions on the workload's inputs.
// A layer that is not on the workload's path is not probed and reports 0.
func runProbes(e *env, in *inputs, out *outcome, layer map[string]float64) (*probeFixture, error) {
	f := out.fixture
	tr := e.tr
	set := func(name string, conv func(time.Duration) float64, n int, prep, fn func() error) error {
		d, err := probe(tr, "probe."+name, n, prep, fn)
		if err != nil {
			return err
		}
		layer[name] = conv(d)
		return nil
	}

	// sim: a bare engine, 1024 processes of 64 sleeps each.
	const procs, sleeps = 1024, 64
	simD, err := probe(tr, "probe.sim.proc_switch", probeFew, nil, func() error {
		eng := sim.NewEngine()
		for i := 0; i < procs; i++ {
			eng.Go("p", func(p *sim.Proc) {
				for k := 0; k < sleeps; k++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		eng.Run()
		return nil
	})
	if err != nil {
		return nil, err
	}
	layer["sim.proc_switch_ns"] = float64(simD) / (procs * sleeps)
	layer["sim.events_per_s"] = procs * (sleeps + 1) / simD.Seconds()

	// measure: hashing fresh copies, so the artifact memo cannot answer.
	kernel := append([]byte(nil), f.spec.Kernel...)
	initrd := append([]byte(nil), f.spec.Initrd...)
	var hashes measure.ComponentHashes
	if err := set("measure.hash_components_ms_p50", ms, probeFew, nil, func() error {
		hashes = measure.HashComponents(kernel, initrd, f.spec.Cmdline)
		return nil
	}); err != nil {
		return nil, err
	}
	mcfg := measure.Config{
		Verifier: verifier.Image(f.spec.VerifierSeed), Hashes: hashes, Cmdline: f.spec.Cmdline,
		VCPUs: f.spec.VCPUs, MemSize: f.spec.MemSize, Level: f.spec.Level, Policy: f.spec.Policy,
	}
	var regions []measure.Region
	if err := set("measure.plan_us_p50", us, probeSome, nil, func() error {
		var err error
		regions, err = measure.Plan(mcfg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := set("measure.expected_digest_ms_p50", ms, probeSome, nil, func() error {
		_, err := measure.ExpectedDigest(mcfg)
		return err
	}); err != nil {
		return nil, err
	}

	// psp: the serial fold over the plan's precomputed content hashes.
	metas := make([]psp.RegionMeta, len(regions))
	contents := make([][32]byte, len(regions))
	for i, r := range regions {
		metas[i] = psp.RegionMeta{PT: r.Type, GPA: r.GPA, Len: len(r.Data)}
		contents[i] = r.Art.RangeDigest(r.ArtOff, len(r.Data))
	}
	initial := psp.InitialDigest(f.spec.Policy, f.spec.Level)
	if err := set("psp.fold_digest_us_p50", us, probeMany, nil, func() error {
		psp.FoldDigest(initial, metas, contents)
		return nil
	}); err != nil {
		return nil, err
	}

	// kernelgen, bzimage, lz4: what a fresh host pays before it can boot.
	if err := set("kernelgen.build_initrd_ms_p50", ms, probeFew, nil, func() error {
		kernelgen.BuildInitrd(in.seed, f.initrdN)
		return nil
	}); err != nil {
		return nil, err
	}
	info, err := bzimage.Parse(f.spec.Kernel)
	if err != nil {
		return nil, err
	}
	if err := set("bzimage.decompress_payload_ms_p50", ms, probeFew, nil, func() error {
		_, err := bzimage.DecompressPayload(info.Payload)
		return err
	}); err != nil {
		return nil, err
	}
	// The payload container is 4 bytes of magic, a codec byte and an
	// 8-byte size ahead of the LZ4 block.
	block := info.Payload[4+1+8:]
	lzD, err := probe(tr, "probe.lz4.decompress", probeFew, nil, func() error {
		_, err := lz4.DecompressBlock(block, info.Uncompressed)
		return err
	})
	if err != nil {
		return nil, err
	}
	layer["lz4.decompress_mib_per_s"] = float64(info.Uncompressed) / (1 << 20) / lzD.Seconds()

	// A measured guest of the workload's image, for everything below.
	fx, err := newProbeFixture(e, f)
	if err != nil {
		return nil, err
	}
	layer["guestmem.private_pages"] = float64(fx.guest.Mem.Stats().PrivatePages)
	report, err := fx.guest.Launch.BuildReport(nil, [64]byte{})
	if err != nil {
		return nil, err
	}
	pub := fx.host.PSP.VerificationKey()
	if err := set("psp.verify_report_us_p50", us, probeSome, nil, func() error {
		return psp.VerifyReport(pub, report)
	}); err != nil {
		return nil, err
	}

	if f.warm {
		if err := forkProbes(fx, f, set); err != nil {
			return nil, err
		}
	}
	if f.broker != nil {
		eng := f.broker.PolicyEngine()
		ev := policy.Evidence{Tenant: "t0", ChipID: "chip-h1", TCB: stormFloor.Encode(), HasPlatform: true}
		now := sim.Time(out.makespan)
		if err := set("policy.evaluate_us_p50", us, probeMany, nil, func() error {
			// A denial is a verdict like any other; the probe times it.
			_, _ = eng.Evaluate(ev, now)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	fx.stats.stages, fx.stats.counters = fx.host.HostStats.Snapshot()
	return fx, nil
}

// forkProbes times the warm tier's building blocks on the fixture's
// donor: capture, export, restore, adoption, sealing.
func forkProbes(fx *probeFixture, f *fixture, set func(string, func(time.Duration) float64, int, func() error, func() error) error) error {
	snap, donor := fx.img.WarmState()
	fork := fx.img.ForkState()
	if snap == nil || donor == nil || fork == nil {
		return fmt.Errorf("probe fixture: cold boot captured no fork")
	}
	digest := donor.Launch.Digest()
	if err := set("snapshot.capture_fork_ms_p50", ms, probeFew, nil, func() error {
		return fx.inProc(func(p *sim.Proc) error {
			_, err := snapshot.CaptureFork(p, donor, digest)
			return err
		})
	}); err != nil {
		return err
	}
	if err := set("guestmem.export_fork_source_ms_p50", ms, probeFew, nil, func() error {
		_, err := donor.Mem.ExportForkSource()
		return err
	}); err != nil {
		return err
	}
	// A guest ready to receive the fork: the launch context that shares
	// the donor's key and ASID must be in place before any page lands.
	var target *kvm.Machine
	prepare := func() error {
		return fx.inProc(func(p *sim.Proc) error {
			m := fx.host.NewMachine(p, snap.Size, f.spec.Level)
			m.PrepSEVHost(p)
			ctx, err := fx.host.PSP.LaunchStartFork(p, m.Mem, donor.Launch, f.spec.Level, f.spec.Policy)
			if err != nil {
				return err
			}
			m.Launch = ctx
			target = m
			return nil
		})
	}
	if err := set("snapshot.fork_restore_us_p50", us, probeSome, prepare, func() error {
		return fork.Restore(nil, target)
	}); err != nil {
		return err
	}
	if err := set("guestmem.adopt_fork_us_p50", us, probeSome, prepare, func() error {
		return target.Mem.AdoptFork(fork.Src)
	}); err != nil {
		return err
	}
	var sealed []byte
	if err := set("snapshot.encode_sealed_ms_p50", ms, probeFew, nil, func() error {
		var err error
		sealed, err = snapshot.EncodeSealed(snap)
		return err
	}); err != nil {
		return err
	}
	if err := set("snapshot.decode_sealed_ms_p50", ms, probeFew, nil, func() error {
		_, err := snapshot.DecodeSealed(sealed)
		return err
	}); err != nil {
		return err
	}
	// Forked boots through the orchestrator, so the fixture's recorders
	// hold the warm path's counters.
	for i := 0; i < probeMany; i++ {
		if err := fx.serve(); err != nil {
			return err
		}
	}
	return nil
}
