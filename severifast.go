// Package severifast is a full-system reproduction of "SEVeriFast:
// Minimizing the root of trust for fast startup of SEV microVMs"
// (ASPLOS 2024).
//
// It models the complete AMD SEV-SNP boot path — PSP launch commands and
// measurement chain, RMP integrity protection, guest memory encryption,
// the SEVeriFast boot verifier, measured direct boot, bzImage/vmlinux
// loading, guest Linux init, and remote attestation — with every data
// transformation executed for real (SHA-256 measurement, AES page
// encryption, LZ4 decompression, ELF loading, report signing) and every
// duration charged to a deterministic virtual clock calibrated against
// the paper's published numbers.
//
// The package offers a small facade over the internal machinery:
//
//	res, err := severifast.Boot(severifast.Config{
//	    Kernel: severifast.KernelAWS,
//	    Level:  severifast.LevelSNP,
//	    Scheme: severifast.SchemeSEVeriFast,
//	    Attest: true,
//	})
//
// Everything the paper's evaluation sweeps — boot scheme, SEV level,
// kernel configuration, compression codec, hashing strategy, huge pages —
// is a Config field. See DESIGN.md for the reproduction methodology and
// EXPERIMENTS.md for paper-vs-measured results.
package severifast

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/severifast/severifast/internal/attest"
	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
	"github.com/severifast/severifast/internal/telemetry"
	"github.com/severifast/severifast/internal/trace"
	"github.com/severifast/severifast/internal/verifier"
)

// Exported error taxonomy. Every error the facade returns can be
// classified with errors.Is against these sentinels; the original
// internal error stays in the chain for context.
var (
	// ErrUnknownScheme reports a Config.Scheme outside the four boot flows.
	ErrUnknownScheme = errors.New("severifast: unknown scheme")
	// ErrUnknownKernel reports a Config.Kernel outside the paper's presets.
	ErrUnknownKernel = errors.New("severifast: unknown kernel")
	// ErrUnknownCodec reports a Config.Codec other than lz4 or gzip.
	ErrUnknownCodec = errors.New("severifast: unknown codec")
	// ErrMeasurementMismatch reports that measured state diverged from the
	// reference: the boot verifier caught a tampered component, or a launch
	// digest disagreed with its prediction.
	ErrMeasurementMismatch = errors.New("severifast: measurement mismatch")
	// ErrAttestationDenied reports that a relying party (guest owner or
	// key broker) refused the attestation evidence.
	ErrAttestationDenied = errors.New("severifast: attestation denied")
	// ErrPolicyDenied reports that the trust-domain policy engine refused
	// an admission — a revoked or expired claim, a TCB below a claimed
	// floor, or an untrusted measurement — whether the refusal came from
	// the fleet's admission gate or the key broker's evaluation.
	ErrPolicyDenied = errors.New("severifast: policy denied")
)

// classifyErr wraps internal failures with the facade's sentinels so
// callers can errors.Is without importing internal packages. The internal
// error remains wrapped for errors.As and message context.
func classifyErr(err error) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, ErrMeasurementMismatch), errors.Is(err, ErrAttestationDenied),
		errors.Is(err, ErrPolicyDenied):
		return err // already classified
	case errors.Is(err, verifier.ErrVerification), errors.Is(err, kbs.ErrMeasurement),
		errors.Is(err, fleet.ErrDigestMismatch):
		return fmt.Errorf("%w: %w", ErrMeasurementMismatch, err)
	case errors.Is(err, kbs.ErrDenied):
		return fmt.Errorf("%w: %w", ErrAttestationDenied, err)
	case errors.Is(err, policy.ErrDenied):
		return fmt.Errorf("%w: %w", ErrPolicyDenied, err)
	case errors.Is(err, kernelgen.ErrUnknownPreset):
		return fmt.Errorf("%w: %w", ErrUnknownKernel, err)
	}
	return err
}

// Kernel selects a guest kernel configuration (paper Fig. 8).
type Kernel string

// The paper's three kernel configurations.
const (
	KernelLupine Kernel = "lupine" // 23M vmlinux, no networking
	KernelAWS    Kernel = "aws"    // 43M vmlinux, Firecracker's microVM config
	KernelUbuntu Kernel = "ubuntu" // 61M vmlinux, distribution-generic
)

// Level selects the SEV feature generation.
type Level string

// SEV levels.
const (
	LevelNone Level = "none"
	LevelSEV  Level = "sev"
	LevelES   Level = "sev-es"
	LevelSNP  Level = "sev-snp"
)

// Scheme selects the boot flow.
type Scheme string

// Boot flows.
const (
	// SchemeStock is unmodified Firecracker direct boot (non-confidential).
	SchemeStock Scheme = "stock"
	// SchemeSEVeriFast is the paper's design: minimal boot verifier,
	// out-of-band hashes, LZ4 bzImage via measured direct boot.
	SchemeSEVeriFast Scheme = "severifast"
	// SchemeSEVeriFastVmlinux boots an uncompressed kernel through the
	// optimized fw_cfg streaming protocol (paper §5).
	SchemeSEVeriFastVmlinux Scheme = "severifast-vmlinux"
	// SchemeQEMUOVMF is the mainstream QEMU + OVMF reference flow.
	SchemeQEMUOVMF Scheme = "qemu-ovmf"
)

// launchSchemes maps the facade's boot flows onto the launch description's
// scheme enum; a Scheme outside it is unknown.
var launchSchemes = map[Scheme]firecracker.Scheme{
	SchemeStock:             firecracker.SchemeStock,
	SchemeSEVeriFast:        firecracker.SchemeSEVeriFastBz,
	SchemeSEVeriFastVmlinux: firecracker.SchemeSEVeriFastVmlinux,
	SchemeQEMUOVMF:          firecracker.SchemeQEMUOVMF,
}

// Codec selects the bzImage payload compression for SchemeSEVeriFast
// (paper Fig. 5: LZ4 decompresses ~4x faster than gzip for ~10% more
// bytes to pre-encrypt).
type Codec string

// Supported codecs.
const (
	CodecLZ4  Codec = "lz4"
	CodecGzip Codec = "gzip"
)

// Config describes one microVM boot.
type Config struct {
	Kernel Kernel // default KernelAWS
	Level  Level  // default LevelSNP (LevelNone for SchemeStock)
	Scheme Scheme // default SchemeSEVeriFast

	VCPUs     int // default 1
	MemMiB    int // default 256
	InitrdMiB int // default 16 (the paper's attestation initrd)

	// Codec selects the bzImage compression for SchemeSEVeriFast
	// (CodecLZ4 default, CodecGzip for the Fig. 5 comparison).
	Codec Codec

	// InBandHashing disables the §4.3 out-of-band hash file, putting
	// component hashing back on the critical path.
	InBandHashing bool

	// PreEncryptPageTables flips the Fig. 7 decision for page tables.
	PreEncryptPageTables bool

	// DisableTHP validates guest memory with 4 KiB pvalidate operations
	// instead of 2 MiB (paper §6.1).
	DisableTHP bool

	// AllowKeySharing relaxes the launch policy so this guest's key can
	// be shared with warm-started clones (paper §6.2/§7). Visible in the
	// measurement and the attestation report.
	AllowKeySharing bool

	// Attest runs remote attestation against an in-process guest owner
	// primed with this configuration's expected digest. Ignored for
	// kernels without networking (Lupine).
	Attest bool

	// VerifierSeed selects the boot verifier build (changing it models a
	// different — possibly malicious — verifier binary).
	VerifierSeed int64

	// Seed fixes the host identity (PSP keys) and jitter; zero means 1.
	Seed int64
}

func (c *Config) fillDefaults() error {
	if c.Kernel == "" {
		c.Kernel = KernelAWS
	}
	if c.Scheme == "" {
		c.Scheme = SchemeSEVeriFast
	}
	if c.Level == "" {
		if c.Scheme == SchemeStock {
			c.Level = LevelNone
		} else {
			c.Level = LevelSNP
		}
	}
	if c.VCPUs == 0 {
		c.VCPUs = 1
	}
	if c.MemMiB == 0 {
		c.MemMiB = 256
	}
	if c.InitrdMiB == 0 {
		c.InitrdMiB = 16
	}
	if c.Codec == "" {
		c.Codec = CodecLZ4
	}
	if c.VerifierSeed == 0 {
		c.VerifierSeed = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if _, ok := launchSchemes[c.Scheme]; !ok {
		return fmt.Errorf("%w %q (want stock, severifast, severifast-vmlinux, or qemu-ovmf)", ErrUnknownScheme, c.Scheme)
	}
	switch c.Codec {
	case CodecLZ4, CodecGzip:
	default:
		return fmt.Errorf("%w %q (want lz4 or gzip)", ErrUnknownCodec, c.Codec)
	}
	return nil
}

// Result reports one completed boot.
type Result struct {
	// Phase durations in virtual time (the paper's Fig. 11 decomposition).
	Total            time.Duration
	VMM              time.Duration
	PreEncryption    time.Duration
	Firmware         time.Duration // QEMU/OVMF flow only
	BootVerification time.Duration
	BootstrapLoader  time.Duration
	LinuxBoot        time.Duration
	Attestation      time.Duration
	TotalWithAttest  time.Duration

	// LaunchDigest is the PSP's final measurement (zero for non-SEV).
	LaunchDigest [32]byte

	// Guest-observed facts.
	CPUs        int
	KernelEntry uint64
	InitrdOK    bool

	// SEVMetadataBytes is the per-guest bookkeeping SEV added (§6.3).
	SEVMetadataBytes int

	machine  *kvm.Machine
	host     *Host
	timeline *trace.Timeline
}

// RenderTimeline draws the boot as an ASCII Gantt chart over the boot's
// span tree.
func (r *Result) RenderTimeline(width int) string {
	if r.timeline == nil {
		return "(no timeline)\n"
	}
	return r.timeline.RenderTimeline(width)
}

// Span is one named interval of a boot, in virtual time relative to the
// boot's start. Depth is the nesting level under the "vm.boot" root
// (depth 0); spans arrive in creation order, parents before children.
type Span struct {
	Name     string
	Start    time.Duration
	Duration time.Duration
	Depth    int
	// Attrs carries the span's attributes (vmm, scheme, level, codec,
	// asid, tier, ...). Nil when the span has none.
	Attrs map[string]string
}

// Event is an instantaneous boot milestone (sev.Event), in virtual time
// relative to the boot's start.
type Event struct {
	Name string
	At   time.Duration
}

// Spans returns the boot's span tree: the "vm.boot" root followed by its
// descendants in creation order. Nil for results without telemetry
// (warm restores of pre-telemetry snapshots).
func (r *Result) Spans() []Span {
	if r.timeline == nil {
		return nil
	}
	raw := r.timeline.Spans()
	if len(raw) == 0 {
		return nil
	}
	base, horizon := raw[0].Start, r.host.reg.Horizon()
	depth := make(map[int]int, len(raw))
	out := make([]Span, 0, len(raw))
	for _, s := range raw {
		d := 0
		if s.Parent != 0 {
			d = depth[s.Parent] + 1
		}
		depth[s.ID] = d
		stop := s.Stop
		if !s.Done {
			stop = horizon
		}
		var attrs map[string]string
		if len(s.Attrs) > 0 {
			attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				attrs[a.Key] = a.Value
			}
		}
		out = append(out, Span{
			Name:     s.Name,
			Start:    s.Start.Sub(base),
			Duration: stop.Sub(s.Start),
			Depth:    d,
			Attrs:    attrs,
		})
	}
	return out
}

// Events returns the boot's instantaneous milestones in order.
func (r *Result) Events() []Event {
	if r.timeline == nil {
		return nil
	}
	raw := r.timeline.Events()
	if len(raw) == 0 {
		return nil
	}
	out := make([]Event, 0, len(raw))
	for _, e := range raw {
		out = append(out, Event{Name: trace.EventName(e.Ev), At: e.At.Sub(r.timeline.Start)})
	}
	return out
}

// Host is one virtual physical machine: a single PSP shared by every
// guest booted on it. Boots on the same Host contend exactly as the
// paper's Fig. 12 describes.
type Host struct {
	eng      *sim.Engine
	inner    *kvm.Host
	seed     int64
	reg      *telemetry.Registry
	pspMu    sync.Mutex      // serializes the PSP's users: enrollment, engine runs, AttestOverHTTP's reports
	enrolled *kbs.Enrollment // set by enrollment
}

// NewHost creates a host with the calibrated default cost model.
func NewHost() *Host { return NewHostSeed(1) }

// NewHostSeed creates a host with a deterministic identity. Every host
// carries a virtual-time telemetry registry: boots record span trees,
// the scheduler records queueing, and Telemetry exports the lot.
func NewHostSeed(seed int64) *Host {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	eng.SetTracer(reg)
	inner := kvm.NewHost(eng, costmodel.Default(), seed)
	inner.Telemetry = reg
	return &Host{eng: eng, inner: inner, seed: seed, reg: reg}
}

// Telemetry is the exporter facade over a host's registry. All
// timestamps are virtual time, so two runs with the same seed produce
// byte-identical output.
type Telemetry struct {
	reg *telemetry.Registry
	rec *telemetry.HostRecorder
}

// Telemetry returns the host's exporter facade.
func (h *Host) Telemetry() *Telemetry {
	return &Telemetry{reg: h.reg, rec: h.inner.HostStats}
}

// WriteChromeTrace writes the full host history as Chrome trace-event
// JSON (load in Perfetto: one track per simulated process, PSP command
// slots on the psp track, instants for sev.Events).
func (t *Telemetry) WriteChromeTrace(w io.Writer) error { return t.reg.WriteChromeTrace(w) }

// WritePrometheus writes all counters, gauges, and series in Prometheus
// text exposition format (durations in seconds).
func (t *Telemetry) WritePrometheus(w io.Writer) error { return t.reg.WritePrometheus(w) }

// WriteJSONSummary writes a machine-readable rollup: span counts by
// name, counters, gauges, and series quantiles.
func (t *Telemetry) WriteJSONSummary(w io.Writer) error { return t.reg.WriteJSONSummary(w) }

// WriteHostStats writes the host-time performance instrumentation in
// Prometheus text format: wall-clock stage timings (e.g. a launch's
// region loop) and cache counters (artifact digest memo hits,
// CoW page aliasing, fork adoptions, zero-copy range views). Unlike the
// virtual-time exporters above, these measure real CPU work on the
// simulating host and vary run to run; the virtual-time exports stay
// byte-identical for a given seed regardless of what these report.
//
// The stats are scoped to this Host: two hosts in one process never
// interleave counters.
func (t *Telemetry) WriteHostStats(w io.Writer) error { return t.rec.Write(w) }

// HostStats returns a snapshot of this host's host-time instrumentation:
// cumulative stage nanoseconds (plus "<stage>.calls" entries) and the
// host-side cache/pool counters.
func (t *Telemetry) HostStats() (stages, counters map[string]int64) {
	return t.rec.Snapshot()
}

// ResetHostStats zeroes this host's host-time instrumentation, e.g.
// between benchmark iterations.
func (t *Telemetry) ResetHostStats() { t.rec.Reset() }

// PlatformKey returns the PSP's report-verification key (the VCEK stand-in
// a one-shot attested boot's owner verifies reports against). Enrolling
// the host installs a VCEK as the PSP's signing key, so the value changes
// once, at the first NewGuestOwner, AttestOverHTTP or attested Pool on it.
func (h *Host) PlatformKey() *ecdsa.PublicKey { return h.inner.PSP.VerificationKey() }

// Boot runs one microVM boot to completion on this host.
func (h *Host) Boot(cfg Config) (*Result, error) {
	results, err := h.BootConcurrent(cfg, 1)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// resolve validates cfg and assembles its launch from the preset, the
// level and kernelgen's cached kernels and initrd (one array per pair, so
// a boot whose initrd set-up built generates and hashes none): the one
// description its monitor boots and the digest tool is asked about, so the
// two cannot drift. Boot, ExpectedLaunchDigest and NewPool all start here.
func (c *Config) resolve() (*firecracker.Config, error) {
	if err := c.fillDefaults(); err != nil {
		return nil, err
	}
	preset, err := kernelgen.PresetByName(string(c.Kernel))
	if err != nil {
		return nil, classifyErr(err)
	}
	level, err := sev.ParseLevel(string(c.Level))
	if err != nil {
		return nil, err
	}
	art, err := kernelgen.Cached(preset)
	if err != nil {
		return nil, err
	}
	return &firecracker.Config{
		Preset:               preset,
		Artifacts:            art,
		Initrd:               kernelgen.BuildInitrd(c.Seed, c.InitrdMiB<<20),
		VCPUs:                c.VCPUs,
		MemSize:              uint64(c.MemMiB) << 20,
		Level:                level,
		Scheme:               launchSchemes[c.Scheme],
		Codec:                bzimage.Codec(c.Codec),
		PreEncryptPageTables: c.PreEncryptPageTables,
		VerifierSeed:         c.VerifierSeed,
		AllowKeySharing:      c.AllowKeySharing,
	}, nil
}

// BootConcurrent launches n identical guests simultaneously, sharing this
// host's PSP. Every guest is a full independent cold boot paying the whole
// measurement pass; with SEV enabled, launches serialize on the PSP and
// mean boot time grows linearly with n (paper Fig. 12). To serve many
// boots of one image cheaply instead, fork them from a Pool.
func (h *Host) BootConcurrent(cfg Config, n int) ([]*Result, error) {
	l, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("severifast: n must be >= 1")
	}
	if l.Scheme != firecracker.SchemeQEMUOVMF && l.Level.Encrypted() && !cfg.InBandHashing {
		// The §4.3 hash file and the VMM's launch plan: computed out of
		// band, once for all n guests, which stage the one plan. QEMU's
		// measured direct boot hashes at launch. An attested guest's owner
		// still plans on its own.
		hashes, err := l.ComponentHashes()
		if err != nil {
			return nil, classifyErr(err)
		}
		l.Hashes = &hashes
		mc, err := l.MeasureConfig()
		if err != nil {
			return nil, classifyErr(err)
		}
		if l.Plan, err = measure.Plan(mc); err != nil {
			return nil, classifyErr(err)
		}
	}
	h.inner.THP = !cfg.DisableTHP

	results := make([]*Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		h.eng.Go(fmt.Sprintf("vm-%d", i), func(pr *sim.Proc) {
			results[i], errs[i] = h.bootOne(pr, *l, cfg.Attest)
		})
	}
	h.run()
	for _, e := range errs {
		if e != nil {
			return nil, classifyErr(e)
		}
	}
	for _, r := range results {
		h.reg.Counter("severifast_boots_total", telemetry.A("scheme", string(cfg.Scheme))).Inc()
		h.reg.Series("severifast_boot_seconds", telemetry.A("scheme", string(cfg.Scheme))).Observe(r.Total)
	}
	return results, nil
}

// bootOne runs its copy of the launch on the launch's monitor. With attested
// set the guest gets its own in-process guest owner, primed with the digest
// the launch expects, when it has anything to attest with.
func (h *Host) bootOne(p *sim.Proc, l firecracker.Config, attested bool) (*Result, error) {
	if attested {
		a, err := attest.ForLaunch(h.PlatformKey(), l, h.seed)
		if err != nil {
			return nil, err
		}
		l.Attestor = a
	}
	res, err := firecracker.Boot(p, h.inner, l)
	if err != nil {
		return nil, err
	}
	return h.result(res), nil
}

// result converts a finished boot of either monitor into the facade's
// Result.
func (h *Host) result(res *firecracker.Result) *Result {
	b, rep := res.Breakdown, res.Report
	return &Result{
		Total:            b.Total,
		VMM:              b.VMM,
		PreEncryption:    b.PreEncryption,
		Firmware:         b.Firmware,
		BootVerification: b.BootVerification,
		BootstrapLoader:  b.BootstrapLoader,
		LinuxBoot:        b.LinuxBoot,
		Attestation:      b.Attestation,
		TotalWithAttest:  b.TotalWithAttest,
		LaunchDigest:     res.LaunchDigest,
		CPUs:             rep.CPUs,
		KernelEntry:      rep.Entry,
		InitrdOK:         rep.InitrdOK,
		SEVMetadataBytes: res.Machine.Mem.SEVMetadataBytes(),
		machine:          res.Machine,
		host:             h,
		timeline:         res.Timeline,
	}
}

// servedResult is the Result of a guest served on machine m without a
// boot breakdown of its own: a Pool boot or a WarmBoot fork. A SEV guest
// reports the digest its launch context holds, the donor's for a fork.
func (h *Host) servedResult(m *kvm.Machine, total time.Duration, cpus int) *Result {
	res := &Result{
		Total:            total,
		CPUs:             cpus,
		SEVMetadataBytes: m.Mem.SEVMetadataBytes(),
		machine:          m,
		host:             h,
		timeline:         m.Timeline,
	}
	if m.Launch != nil {
		res.LaunchDigest = m.Launch.Digest()
	}
	return res
}

// run runs the host's engine until it idles. It holds pspMu, as a Result
// of this host attesting over HTTP builds its report on the same PSP, so
// nothing the engine runs may enroll the host.
func (h *Host) run() {
	h.pspMu.Lock()
	defer h.pspMu.Unlock()
	h.eng.Run()
}

// Boot runs one boot on a fresh host (the common single-VM entry point).
func Boot(cfg Config) (*Result, error) {
	return NewHostSeed(cfgSeed(cfg)).Boot(cfg)
}

func cfgSeed(cfg Config) int64 {
	if cfg.Seed != 0 {
		return cfg.Seed
	}
	return 1
}

// ExpectedLaunchDigest computes, host-side, the launch digest a correct
// launch of cfg must produce — the paper's §4.2 tool. A guest owner
// compares it against the measurement in the attestation report. A launch
// Boot refuses, or one that is never measured (SchemeStock), has no digest
// and gets the launch's own error.
func ExpectedLaunchDigest(cfg Config) ([32]byte, error) {
	l, err := cfg.resolve()
	if err != nil {
		return [32]byte{}, err
	}
	d, err := l.ExpectedDigest()
	return d, classifyErr(err)
}

// ComponentHashes returns the §4.3 out-of-band component hashes of the
// launch cfg describes — the hash file a guest owner keeps beside
// ExpectedLaunchDigest's digest, naming the kernel image that launch
// stages. SchemeStock is never measured and gets the launch's own error.
func ComponentHashes(cfg Config) (measure.ComponentHashes, error) {
	l, err := cfg.resolve()
	if err != nil {
		return measure.ComponentHashes{}, err
	}
	h, err := l.ComponentHashes()
	return h, classifyErr(err)
}

// GuestOwner is the remote-attestation service a tenant runs: a key
// broker pinning the root of one host's key authority, with one tenant,
// floors of SEV-SNP and the default guest policy, and the launch digests
// it expects filed as reference values. It releases its secret to guests
// of that host whose measurement it expects.
type GuestOwner struct {
	broker *kbs.Broker
}

// ownerTenant is the one tenant a facade owner serves and a facade guest
// redeems as; an attested Pool's broker serves it too.
const ownerTenant = "owner"

// NewGuestOwner creates an owner trusting the given host's PSP and
// releasing secret after successful attestation. It enrolls the host
// (see PlatformKey).
func NewGuestOwner(h *Host, secret []byte) *GuestOwner {
	b := kbs.NewBroker(h.enrollment().Authority.Root(), kbs.Config{
		MinPolicy: sev.DefaultPolicy(),
		MinLevel:  sev.SNP,
		Seed:      h.seed ^ 0x0EEE,
	})
	b.AddTenant(ownerTenant, secret)
	return &GuestOwner{broker: b}
}

// AllowConfig whitelists the launch digest a correct boot of cfg produces.
func (o *GuestOwner) AllowConfig(cfg Config) error {
	d, err := ExpectedLaunchDigest(cfg)
	if err != nil {
		return err
	}
	o.AllowDigest(d)
	return nil
}

// AllowDigest whitelists an explicit digest.
func (o *GuestOwner) AllowDigest(d [32]byte) {
	if err := o.broker.File(kbs.RefClaim(d, "guest owner")); err != nil {
		panic("severifast: a reference value cannot be refused: " + err.Error())
	}
}

// Handler exposes the owner over HTTP, as in the paper's nginx
// attestation server: the broker's POST /challenge and /redeem. The
// broker's /claim is not served, so what the owner allows is only ever
// what AllowConfig and AllowDigest filed.
func (o *GuestOwner) Handler() http.Handler {
	h := o.broker.Handler()
	mux := http.NewServeMux()
	mux.Handle("/challenge", h)
	mux.Handle("/redeem", h)
	return mux
}

// AttestOverHTTP performs the guest side of remote attestation for a
// booted SEV guest against a key broker at baseURL (a GuestOwner's Handler
// or sevf-attestd), returning the released secret: the Fig. 1 step 5-8
// round trip over a real socket. The guest answers a challenge with a
// report binding the nonce and its key, plus its host's chain (enrolling
// the host, see PlatformKey). Results of one host may attest at once.
func (r *Result) AttestOverHTTP(baseURL string) ([]byte, error) {
	if r.machine == nil || r.machine.Launch == nil {
		return nil, fmt.Errorf("severifast: guest has no SEV launch context")
	}
	enr := r.host.enrollment()
	agent := attest.NewAgentSeeded(r.host.seed + int64(r.machine.Launch.ASID()))
	c := &kbs.Client{Base: baseURL}
	ch, err := c.Challenge(ownerTenant, 0)
	if err != nil {
		return nil, classifyErr(err)
	}
	r.host.pspMu.Lock()
	report, err := r.machine.Launch.BuildReport(nil, kbs.BindReportData(ch.Nonce, agent.PublicKey()))
	r.host.pspMu.Unlock()
	if err != nil {
		return nil, err
	}
	res, err := c.Redeem(kbs.RedeemRequest{
		Tenant:   ownerTenant,
		Nonce:    ch.Nonce,
		Report:   report.Marshal(),
		Chain:    enr.Chain.Marshal(),
		GuestPub: agent.PublicKey(),
	}, 0)
	if err != nil {
		return nil, classifyErr(err)
	}
	return agent.Unwrap(res.Bundle)
}

// Snapshot is a booted guest captured as a warm parent for the §7
// warm-start experiments: the guest itself, parked as the donor, and its
// resident memory frozen in place for forking.
type Snapshot struct {
	fork *snapshot.Fork
	cpus int // the donor's, which every fork runs with
}

// Snapshot captures a booted guest as a warm parent. The guest is parked
// as the donor of every WarmBoot of the snapshot: its memory is frozen in
// place, not copied.
func (h *Host) Snapshot(r *Result) (*Snapshot, error) {
	if r.machine == nil {
		return nil, fmt.Errorf("severifast: result carries no machine")
	}
	var fork *snapshot.Fork
	var err error
	h.eng.Go("snapshot", func(p *sim.Proc) {
		fork, err = snapshot.CaptureFork(p, r.machine, r.LaunchDigest)
	})
	h.run()
	if err != nil {
		return nil, err
	}
	return &Snapshot{fork: fork, cpus: r.CPUs}, nil
}

// WarmBoot starts a new guest forked from a snapshot instead of
// cold-booting.
//
// For non-SEV snapshots the fork aliases the donor's pages. For SEV
// snapshots the new guest must share the donor's encryption key (the donor
// must have been booted with AllowKeySharing; the paper's §6.2 trade-off)
// and re-validate its memory, and it inherits the donor's launch digest —
// but it skips pre-encryption, measured direct boot, decompression, and
// kernel init entirely. Total on the returned Result is the fork latency.
func (h *Host) WarmBoot(s *Snapshot) (*Result, error) {
	var res *Result
	var bootErr error
	h.eng.Go("warmboot", func(p *sim.Proc) {
		start := p.Now()
		level := s.fork.Donor.Level
		m, err := s.fork.Boot(p, h.inner, level, firecracker.LaunchPolicy(level, true))
		if err != nil {
			bootErr = err
			return
		}
		m.Timeline.Close(p.Now())
		res = h.servedResult(m, p.Now().Sub(start), s.cpus)
	})
	h.run()
	if bootErr != nil {
		return nil, bootErr
	}
	h.reg.Counter("severifast_boots_total", telemetry.A("scheme", "warm-restore")).Inc()
	h.reg.Series("severifast_boot_seconds", telemetry.A("scheme", "warm-restore")).Observe(res.Total)
	return res, nil
}
