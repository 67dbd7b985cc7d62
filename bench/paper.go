package bench

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	severifast "github.com/severifast/severifast"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/qemu"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/trace"
	"github.com/severifast/severifast/internal/verifier"
)

//go:embed reference.json
var referenceJSON []byte

// Anchor is one published number the simulator is compared against.
type Anchor struct {
	ID     string  `json:"id"`
	Source string  `json:"source"`
	Kind   string  `json:"kind"` // "calibration" or "held_back"
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	How    string  `json:"how"`
}

// References parses the embedded reference.json.
func References() ([]Anchor, error) {
	var doc struct {
		Anchors []Anchor `json:"anchors"`
	}
	if err := json.Unmarshal(referenceJSON, &doc); err != nil {
		return nil, fmt.Errorf("bench: reference.json: %w", err)
	}
	for _, a := range doc.Anchors {
		if a.Kind != "calibration" && a.Kind != "held_back" {
			return nil, fmt.Errorf("bench: reference.json: anchor %q has kind %q", a.ID, a.Kind)
		}
		if a.Value == 0 {
			return nil, fmt.Errorf("bench: reference.json: anchor %q has no value", a.ID)
		}
	}
	return doc.Anchors, nil
}

// paperBoot is one facade boot's simulated result, the unit of
// paper_oneshot's canonical output.
type paperBoot struct {
	Kernel  string `json:"kernel"`
	Scheme  string `json:"scheme"`
	TotalNs int64  `json:"total_ns"`
	// EndNs is boot to completed attestation where the boot attests.
	EndNs      int64  `json:"end_ns"`
	VMMNs      int64  `json:"vmm_ns"`
	PreEncNs   int64  `json:"preenc_ns"`
	FirmwareNs int64  `json:"firmware_ns"`
	VerifyNs   int64  `json:"verify_ns"`
	LinuxNs    int64  `json:"linux_ns"`
	Digest     string `json:"digest"`
}

type paperOutput struct {
	Boots     []paperBoot        `json:"boots"`
	Fig12Ns   []int64            `json:"fig12_ns"`
	Fig4Ns    map[string]int64   `json:"fig4_ns"`
	Simulated map[string]float64 `json:"simulated"`
	ModelErr  float64            `json:"model_err_pct"`
	CalibErr  float64            `json:"calib_err_pct"`
	Validated int                `json:"validated"`
}

var paperKernels = []severifast.Kernel{severifast.KernelLupine, severifast.KernelAWS, severifast.KernelUbuntu}
var paperSchemes = []severifast.Scheme{severifast.SchemeStock, severifast.SchemeSEVeriFast, severifast.SchemeSEVeriFastVmlinux, severifast.SchemeQEMUOVMF}

// fig4Sizes are the paper's three pre-encryption points: the lupine LZ4
// bzImage, the compressed initrd, the lupine vmlinux.
var fig4Sizes = []struct {
	id string
	n  int
}{
	{"fig4_preenc_3_3mib_ms", 3460300},
	{"fig4_preenc_12mib_ms", 12 << 20},
	{"fig4_preenc_23mib_ms", 23 << 20},
}

// fig12Guests is the concurrency of the paper's last Fig. 12 point.
const fig12Guests = 50

// paperOneshot is the paper's literal experiment and a library user's
// first call: every kernel under every boot scheme, each on a fresh host
// with nothing cached across hosts, then the 50-guest concurrency point
// and the Fig. 4 pre-encryption sizes.
func paperOneshot(e *env, in *inputs) (*outcome, error) {
	var jobs []severifast.Config
	for _, k := range paperKernels {
		for _, s := range paperSchemes {
			jobs = append(jobs, severifast.Config{
				Kernel: k, Scheme: s, Attest: true, InitrdMiB: in.initrdBytes >> 20, MemMiB: in.memMiB, Seed: in.seed,
			})
		}
	}
	if n := atLeast(1, len(jobs)/in.scale); n < len(jobs) {
		// A scaled-down round keeps the SEVeriFast boots of the first
		// kernels: index 1 of every group of four.
		var kept []severifast.Config
		for i := 1; i < len(jobs) && len(kept) < n; i += len(paperSchemes) {
			kept = append(kept, jobs[i])
		}
		jobs = kept
	}
	guests := atLeast(2, fig12Guests/in.scale)

	out := paperOutput{Fig4Ns: map[string]int64{}}
	var lat trace.Series
	var makespan time.Duration
	var results []*severifast.Result
	var hosts []*severifast.Host
	err := e.timed(func() error {
		for _, cfg := range jobs {
			sp := e.tr.Begin("severifast.Boot")
			// severifast.Boot(cfg) is exactly this pair; keeping the host
			// lets the traced round read its recorders afterwards.
			host := severifast.NewHostSeed(cfg.Seed)
			r, err := host.Boot(cfg)
			e.tr.End(sp)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", cfg.Kernel, cfg.Scheme, err)
			}
			hosts = append(hosts, host)
			results = append(results, r)
			lat = append(lat, r.TotalWithAttest)
			makespan += r.TotalWithAttest
		}
		sp := e.tr.Begin("severifast.Host.BootConcurrent")
		host := severifast.NewHostSeed(in.seed)
		hosts = append(hosts, host)
		rs, err := host.BootConcurrent(severifast.Config{Kernel: severifast.KernelAWS, InitrdMiB: in.initrdBytes >> 20, MemMiB: in.memMiB, Seed: in.seed}, guests)
		e.tr.End(sp)
		if err != nil {
			return fmt.Errorf("fig12: %w", err)
		}
		var longest time.Duration
		for _, r := range rs {
			lat = append(lat, r.Total)
			out.Fig12Ns = append(out.Fig12Ns, int64(r.Total))
			if r.Total > longest {
				longest = r.Total
			}
		}
		makespan += longest
		for _, f := range fig4Sizes {
			sp := e.tr.Begin("psp.LaunchUpdateData")
			d, err := preEncryptOnce(e, in.seed, f.n/in.scale)
			e.tr.End(sp)
			if err != nil {
				return fmt.Errorf("fig4: %w", err)
			}
			out.Fig4Ns[f.id] = int64(d)
			makespan += d
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if e.tr != nil {
		// The facade hosts' own recorders, read after the timed region.
		for _, h := range hosts {
			stages, counters := h.Telemetry().HostStats()
			e.facade = append(e.facade, hostStats{stages, counters})
			var buf bytes.Buffer
			if err := h.Telemetry().WriteChromeTrace(&buf); err != nil {
				return nil, err
			}
			if err := e.sim.absorbChromeTrace(&buf); err != nil {
				return nil, err
			}
		}
	}

	byName := map[string]*severifast.Result{}
	for i, cfg := range jobs {
		r := results[i]
		want, err := paperExpectedDigest(cfg, in.initrds[0])
		if err != nil {
			return nil, err
		}
		if r.LaunchDigest != want {
			return nil, fmt.Errorf("%s/%s measured %x, expected %x", cfg.Kernel, cfg.Scheme, r.LaunchDigest[:8], want[:8])
		}
		byName[string(cfg.Kernel)+"/"+string(cfg.Scheme)] = r
		out.Boots = append(out.Boots, paperBoot{
			Kernel: string(cfg.Kernel), Scheme: string(cfg.Scheme),
			TotalNs: int64(r.Total), EndNs: int64(r.TotalWithAttest),
			VMMNs: int64(r.VMM), PreEncNs: int64(r.PreEncryption), FirmwareNs: int64(r.Firmware),
			VerifyNs: int64(r.BootVerification), LinuxNs: int64(r.LinuxBoot),
			Digest: fmt.Sprintf("%x", r.LaunchDigest),
		})
	}

	layer := map[string]float64{}
	if r := byName["aws/severifast"]; r != nil {
		layer["firecracker.vmm_virtual_ms"] = ms(r.VMM)
		layer["verifier.virtual_ms"] = ms(r.BootVerification)
		layer["linux.boot_virtual_ms"] = ms(r.LinuxBoot)
		layer["psp.preencrypt_virtual_ms"] = ms(r.PreEncryption)
		layer["attest.exchange_virtual_ms_p50"] = ms(r.Attestation)
	}
	attested := 0
	for _, r := range results {
		if r.Attestation > 0 {
			attested++
		}
	}
	layer["attest.attested"] = float64(attested)

	// Accuracy is stated only at full size: a scaled-down round has not
	// run the boots the anchors describe.
	if in.scale == 1 {
		out.Simulated = paperSimulated(byName, out)
		anchors, err := References()
		if err != nil {
			return nil, err
		}
		out.ModelErr, out.CalibErr, out.Validated, err = modelError(anchors, out.Simulated)
		if err != nil {
			return nil, err
		}
		layer["paper.validated"] = float64(out.Validated)
		layer["paper.model_err_pct"] = out.ModelErr
		layer["paper.calib_err_pct"] = out.CalibErr
	}

	p, err := kernelgen.PresetByName(string(severifast.KernelAWS))
	if err != nil {
		return nil, err
	}
	spec, err := imageSpec(p, in.initrds[0], in.memSize(), false)
	if err != nil {
		return nil, err
	}
	return &outcome{
		attempted: len(jobs) + guests,
		served:    len(lat),
		failures:  map[string]int{},
		latP50:    lat.Percentile(50),
		latP99:    lat.Percentile(99),
		samples:   len(lat),
		makespan:  makespan,
		output:    out,
		layer:     layer,
		validated: out.Validated > 0,
		fixture:   &fixture{preset: p, spec: spec, initrdN: in.initrdBytes},
	}, nil
}

// preEncryptOnce is the Fig. 4 measurement: one LAUNCH_UPDATE_DATA of n
// bytes on a fresh SNP host, in simulated time.
func preEncryptOnce(e *env, seed int64, n int) (time.Duration, error) {
	eng := newEngine(e)
	host := newHost(e, eng, seed)
	var elapsed time.Duration
	var err error
	eng.Go("preenc", func(p *sim.Proc) {
		mem := guestmem.New(uint64(n) + 1<<20)
		ctx, lerr := host.PSP.LaunchStart(p, mem, sev.SNP, sev.DefaultPolicy())
		if lerr != nil {
			err = lerr
			return
		}
		start := p.Now()
		if lerr := ctx.LaunchUpdateData(p, 0, n, sev.PageNormal); lerr != nil {
			err = lerr
			return
		}
		elapsed = p.Now().Sub(start)
	})
	eng.Run()
	return elapsed, err
}

// paperExpectedDigest recomputes, from the internal measurement tools
// and the benchmark's own copy of the initrd, the launch digest the
// facade boot of cfg must have produced. Non-SEV boots measure nothing.
func paperExpectedDigest(cfg severifast.Config, initrd []byte) ([32]byte, error) {
	if cfg.Scheme == severifast.SchemeStock {
		return [32]byte{}, nil
	}
	preset, err := kernelgen.PresetByName(string(cfg.Kernel))
	if err != nil {
		return [32]byte{}, err
	}
	art, err := kernelgen.Cached(preset)
	if err != nil {
		return [32]byte{}, err
	}
	if cfg.Scheme == severifast.SchemeQEMUOVMF {
		return qemu.ExpectedDigest(1, sev.SNP, measure.HashComponents(art.BzImageLZ4, initrd, preset.Cmdline)), nil
	}
	kernel := art.BzImageLZ4
	if cfg.Scheme == severifast.SchemeSEVeriFastVmlinux {
		kernel = art.VMLinux
	}
	return measure.ExpectedDigest(measure.Config{
		Verifier: verifier.Image(1),
		Hashes:   measure.HashComponents(kernel, initrd, preset.Cmdline),
		Cmdline:  preset.Cmdline,
		VCPUs:    1,
		MemSize:  uint64(cfg.MemMiB) << 20,
		Level:    sev.SNP,
		Policy:   sev.DefaultPolicy(),
	})
}

// paperSimulated derives, from the round's results, the simulated value
// of every anchor in reference.json.
func paperSimulated(by map[string]*severifast.Result, out paperOutput) map[string]float64 {
	sim := map[string]float64{}
	for _, k := range paperKernels {
		sf, q := by[string(k)+"/severifast"], by[string(k)+"/qemu-ovmf"]
		if sf != nil && q != nil {
			sim["fig9_reduction_"+string(k)+"_pct"] = 100 * (1 - float64(sf.TotalWithAttest)/float64(q.TotalWithAttest))
		}
	}
	for id, ns := range out.Fig4Ns {
		sim[id] = ms(time.Duration(ns))
	}
	if sf, st := by["aws/severifast"], by["aws/stock"]; sf != nil && st != nil {
		sim["fig11_aws_over_stock_ratio"] = float64(sf.Total) / float64(st.Total)
		sim["sec6_2_linux_boot_snp_ratio"] = float64(sf.LinuxBoot) / float64(st.LinuxBoot)
		sim["fig10_preenc_severifast_aws_ms"] = ms(sf.PreEncryption)
	}
	if q := by["aws/qemu-ovmf"]; q != nil {
		sim["fig10_firmware_qemu_aws_ms"] = ms(q.Firmware)
	}
	if len(out.Fig12Ns) == fig12Guests {
		var sum int64
		for _, ns := range out.Fig12Ns {
			sum += ns
		}
		sim["fig12_50_guests_ms"] = ms(time.Duration(sum / fig12Guests))
	}
	return sim
}

// modelError is the mean absolute relative error, in percent, over the
// held-back anchors and over the calibration anchors. Every anchor must
// have a simulated value: a missing one is a broken benchmark, not an
// accuracy of zero.
func modelError(anchors []Anchor, sim map[string]float64) (held, calib float64, validated int, err error) {
	var nHeld, nCalib int
	for _, a := range anchors {
		got, ok := sim[a.ID]
		if !ok {
			return 0, 0, 0, fmt.Errorf("no simulated value for anchor %q", a.ID)
		}
		rel := 100 * math.Abs(got-a.Value) / math.Abs(a.Value)
		if a.Kind == "held_back" {
			held += rel
			nHeld++
		} else {
			calib += rel
			nCalib++
		}
	}
	if nHeld == 0 || nCalib == 0 {
		return 0, 0, 0, fmt.Errorf("reference.json needs anchors of both kinds")
	}
	return held / float64(nHeld), calib / float64(nCalib), nHeld, nil
}
