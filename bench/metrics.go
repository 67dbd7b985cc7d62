// Package bench is the repository's benchmark: six workloads, a small set
// of end-to-end metrics split into host time (what the simulator costs)
// and simulated time (what the modelled SEV host would take), and
// per-layer metrics taken from outside each internal module. README.md
// holds the tables and the reasons; BENCHMARK.json at the repository root
// is the machine-readable contract and bench_test.go keeps the two equal.
package bench

// Kind says which clock a metric reads.
type Kind string

const (
	// Host metrics measure the simulator on the machine running it and
	// carry run-to-run noise.
	Host Kind = "host"
	// Simulated metrics are outputs of the deterministic model: for one
	// seed they repeat exactly, and the command fails if two rounds of a
	// run disagree on one.
	Simulated Kind = "simulated"
)

// Metric is one named number the benchmark reports.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Kind   Kind
	// Bound is the share of the parent's median by which the metric may
	// get worse before a change counts as a regression (end-to-end only).
	Bound float64
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string
}

// Workload names one set of inputs and why it exists.
type Workload struct {
	Name string
	Why  string
	// Size is the full-scale operation count of one round; Images and
	// Hosts size the image set and the cluster where the workload has one.
	Size   int
	Images int
	Hosts  int
	// MinRounds is the least number of untraced rounds a run makes.
	MinRounds int
}

// Workloads lists the six workloads in report order. Sizes are fixed
// operation counts, never durations, so simulated statistics of two
// commits compare exactly.
var Workloads = []Workload{
	{Name: "cold_cached", Size: 1024, Images: 1, Hosts: 1, MinRounds: 3,
		Why: "one host, 1024 open-loop cold boots of one image: the measured-image cache read path and the full PSP launch; kbs, cluster and snapshot do nothing"},
	{Name: "warm_fork", Size: 4096, Images: 1, Hosts: 1, MinRounds: 3,
		Why: "public Pool, 4096 sequential forked boots after one cold seed: snapshot fork restore and page aliasing do the work, measurement and AES almost none"},
	{Name: "image_churn", Size: 128, Images: 32, Hosts: 1, MinRounds: 3,
		Why: "32 distinct images, each registered, cold-booted, forked 3 times and evicted: the write side of every cache the first two workloads only read"},
	{Name: "cluster_zipf", Size: 4096, Images: 64, Hosts: 32, MinRounds: 3,
		Why: "32 hosts, 64 images, 4096 Zipf arrivals, cache-affinity, no broker: the event loop, dispatcher, placement and replication with no crypto"},
	{Name: "cluster_storm", Size: 512, Images: 6, Hosts: 4, MinRounds: 3,
		Why: "4 hosts in 2 generations, warm pools, key broker and policy engine, a revocation storm with rolling drift: attestation crypto, sealed snapshots, denials"},
	{Name: "paper_oneshot", Size: 62, Images: 3, Hosts: 1, MinRounds: 2,
		Why: "the paper's experiment through the facade on fresh hosts: 3 kernels x 4 schemes, the Fig. 12 50-guest point, Fig. 4 sizes; nothing cached across hosts"},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// EndToEnd lists the metrics a user of the system would see. Every
// workload reports every one of them and none is ever zero. Simulated
// metrics carry a non-zero bound only because BENCHMARK.json compares
// medians over several seeds; within one seed they are compared exactly.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Kind: Host, Bound: 0.25},
	{Name: "boots_per_s", Unit: "boots/s", Better: "higher", Kind: Host, Bound: 0.25},
	{Name: "allocs_per_boot", Unit: "count", Better: "lower", Kind: Host, Bound: 0.03},
	{Name: "alloc_kib_per_boot", Unit: "KiB", Better: "lower", Kind: Host, Bound: 0.1},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Kind: Host, Bound: 0.15},
	{Name: "virtual_boot_ms_p50", Unit: "ms", Better: "lower", Kind: Simulated, Bound: 0.2},
	{Name: "virtual_boot_ms_p99", Unit: "ms", Better: "lower", Kind: Simulated, Bound: 0.25},
	{Name: "virtual_makespan_s", Unit: "s", Better: "lower", Kind: Simulated, Bound: 0.1},
	{Name: "served_share", Unit: "ratio", Better: "higher", Kind: Simulated, Bound: 0.02},
}

// PerLayer lists the per-layer metrics of the traced round, prefix =
// module. A layer that does not run on a workload reports 0 there, which
// is the "predicted no change" column of the interaction table.
var PerLayer = []Metric{
	{Name: "severifast.pool_boot_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "severifast.pool_boot_us_p99", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "severifast.boot_oneshot_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "severifast.new_pool_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "setup_s"},

	{Name: "fleet.register_image_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "fleet.serve_cold_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "fleet.serve_warm_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "fleet.run_self_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "fleet.cache_hit_ratio", Unit: "ratio", Better: "higher", Kind: Simulated, Moves: "boots_per_s"},
	{Name: "fleet.cache_plans", Unit: "count", Better: "lower", Kind: Simulated, Moves: "boots_per_s"},
	{Name: "fleet.cache_hashed_bytes", Unit: "bytes", Better: "lower", Kind: Simulated, Moves: "boots_per_s"},
	{Name: "fleet.tier_warm", Unit: "count", Better: "higher", Kind: Simulated, Moves: "virtual_boot_ms_p50"},
	{Name: "fleet.tier_cached_cold", Unit: "count", Better: "higher", Kind: Simulated, Moves: "virtual_boot_ms_p50"},
	{Name: "fleet.tier_cold", Unit: "count", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "fleet.retries", Unit: "count", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "fleet.reattests", Unit: "count", Better: "lower", Kind: Simulated, Moves: "served_share"},
	{Name: "fleet.warm_invalidated", Unit: "count", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "fleet.queue_wait_virtual_ms_p50", Unit: "ms", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p50"},

	{Name: "cluster.play_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "cluster.run_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "cluster.run_self_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "cluster.summarize_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "cluster.place_calls", Unit: "count", Better: "lower", Kind: Simulated, Moves: "boots_per_s"},
	{Name: "cluster.place_busy_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "cluster.place_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "cluster.hit_rate", Unit: "ratio", Better: "higher", Kind: Simulated, Moves: "virtual_boot_ms_p50"},
	{Name: "cluster.queue_max", Unit: "count", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "cluster.deferred", Unit: "count", Better: "lower", Kind: Simulated, Moves: "virtual_makespan_s"},
	{Name: "cluster.shed", Unit: "count", Better: "lower", Kind: Simulated, Moves: "served_share"},
	{Name: "cluster.warm_captures", Unit: "count", Better: "lower", Kind: Simulated, Moves: "peak_rss_mib"},
	{Name: "cluster.warm_adoptions", Unit: "count", Better: "higher", Kind: Simulated, Moves: "boots_per_s"},
	{Name: "cluster.storm_to_green_virtual_ms", Unit: "ms", Better: "lower", Kind: Simulated, Moves: "virtual_makespan_s"},
	{Name: "cluster.storm_reseeds", Unit: "count", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "cluster.storm_tainted_serves", Unit: "count", Better: "lower", Kind: Simulated, Moves: "served_share"},

	{Name: "artifact.repl_local_hits", Unit: "count", Better: "higher", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "artifact.repl_waits", Unit: "count", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "artifact.repl_peer_bytes", Unit: "bytes", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "artifact.repl_origin_bytes", Unit: "bytes", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "artifact.digest_hit_ratio", Unit: "ratio", Better: "higher", Kind: Host, Moves: "boots_per_s"},
	{Name: "artifact.derived_hit_ratio", Unit: "ratio", Better: "higher", Kind: Host, Moves: "boots_per_s"},
	{Name: "artifact.interned_bytes", Unit: "bytes", Better: "lower", Kind: Host, Moves: "peak_rss_mib"},
	{Name: "artifact.digest_bytes_hashed", Unit: "bytes", Better: "lower", Kind: Host, Moves: "boots_per_s"},

	{Name: "kbs.challenge_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "kbs.redeem_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "kbs.redeem_us_p99", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "kbs.busy_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "kbs.grants", Unit: "count", Better: "higher", Kind: Simulated, Moves: "served_share"},
	{Name: "kbs.denials", Unit: "count", Better: "lower", Kind: Simulated, Moves: "served_share"},
	{Name: "kbs.chain_hit_ratio", Unit: "ratio", Better: "higher", Kind: Simulated, Moves: "boots_per_s"},
	{Name: "kbs.verdict_hit_ratio", Unit: "ratio", Better: "higher", Kind: Simulated, Moves: "boots_per_s"},

	{Name: "policy.evaluate_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "policy.evals", Unit: "count", Better: "lower", Kind: Simulated, Moves: "boots_per_s"},
	{Name: "policy.denials", Unit: "count", Better: "lower", Kind: Simulated, Moves: "served_share"},
	{Name: "policy.store_version", Unit: "count", Better: "lower", Kind: Simulated, Moves: "boots_per_s"},

	{Name: "attest.exchange_virtual_ms_p50", Unit: "ms", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p50"},
	{Name: "attest.attested", Unit: "count", Better: "higher", Kind: Simulated, Moves: "served_share"},

	{Name: "psp.pipeline_busy_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "psp.pipeline_calls", Unit: "count", Better: "lower", Kind: Simulated, Moves: "boots_per_s"},
	{Name: "psp.fold_prefix_hit_ratio", Unit: "ratio", Better: "higher", Kind: Host, Moves: "boots_per_s"},
	{Name: "psp.verify_report_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "psp.fold_digest_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "psp.queue_wait_virtual_ms_p50", Unit: "ms", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "psp.service_virtual_ms_total", Unit: "ms", Better: "lower", Kind: Simulated, Moves: "virtual_makespan_s"},
	{Name: "psp.preencrypt_virtual_ms", Unit: "ms", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p50"},

	{Name: "measure.hash_components_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "measure.plan_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "measure.expected_digest_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},

	{Name: "guestmem.export_fork_source_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "guestmem.adopt_fork_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "guestmem.digest_memo_hits", Unit: "count", Better: "higher", Kind: Host, Moves: "boots_per_s"},
	{Name: "guestmem.digest_streamed_bytes", Unit: "bytes", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "guestmem.view_hits", Unit: "count", Better: "higher", Kind: Host, Moves: "boots_per_s"},
	{Name: "guestmem.aliased_pages", Unit: "count", Better: "higher", Kind: Host, Moves: "alloc_kib_per_boot"},
	{Name: "guestmem.private_pages", Unit: "count", Better: "lower", Kind: Simulated, Moves: "peak_rss_mib"},

	{Name: "snapshot.capture_fork_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "snapshot.fork_restore_us_p50", Unit: "us", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "snapshot.encode_sealed_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "snapshot.decode_sealed_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},

	{Name: "lz4.decompress_mib_per_s", Unit: "MiB/s", Better: "higher", Kind: Host, Moves: "boots_per_s"},
	{Name: "bzimage.decompress_payload_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "kernelgen.build_initrd_ms_p50", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "kernelgen.cached_build_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "setup_s"},

	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Kind: Host, Moves: "boots_per_s"},
	{Name: "sim.proc_switch_ns", Unit: "ns", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "sim.wait_intervals", Unit: "count", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p99"},
	{Name: "sim.service_intervals", Unit: "count", Better: "lower", Kind: Simulated, Moves: "boots_per_s"},
	{Name: "sim.idle_intervals", Unit: "count", Better: "lower", Kind: Simulated, Moves: "boots_per_s"},

	{Name: "firecracker.vmm_virtual_ms", Unit: "ms", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p50"},
	{Name: "verifier.virtual_ms", Unit: "ms", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p50"},
	{Name: "linux.boot_virtual_ms", Unit: "ms", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p50"},

	{Name: "paper.validated", Unit: "count", Better: "higher", Kind: Simulated, Moves: "virtual_boot_ms_p50"},
	{Name: "paper.model_err_pct", Unit: "%", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p50"},
	{Name: "paper.calib_err_pct", Unit: "%", Better: "lower", Kind: Simulated, Moves: "virtual_boot_ms_p50"},

	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "harness.gomaxprocs", Unit: "count", Better: "higher", Kind: Host, Moves: "boots_per_s"},
	{Name: "harness.gc_cycles", Unit: "count", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "harness.gc_pause_ms", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "harness.round_wall_ms_min", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
	{Name: "harness.round_wall_ms_max", Unit: "ms", Better: "lower", Kind: Host, Moves: "boots_per_s"},
}
