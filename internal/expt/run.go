package expt

import (
	"fmt"

	"github.com/severifast/severifast/internal/attest"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// initrd is the attestation initrd every experiment of a run shares.
func (o Options) initrd() []byte {
	return kernelgen.CachedInitrd(o.Seed, o.initrdSize())
}

// world is one fresh simulated host: its engine, the host on it, and the
// first error any of its processes returned. Every experiment measures on
// a world of its own, so no boot inherits another's PSP queue or ASIDs.
type world struct {
	eng  *sim.Engine
	host *kvm.Host
	seed int64
	err  error
}

func newWorld(model costmodel.Model, seed int64) *world {
	eng := sim.NewEngine()
	return &world{eng: eng, host: kvm.NewHost(eng, model, seed), seed: seed}
}

// spawn starts fn as a simulation process of the world.
func (w *world) spawn(name string, fn func(p *sim.Proc) error) {
	w.eng.Go(name, func(p *sim.Proc) {
		if err := fn(p); err != nil && w.err == nil {
			w.err = err
		}
	})
}

// run drains the engine and returns the first process error.
func (w *world) run() error {
	w.eng.Run()
	return w.err
}

// boot runs one boot of sc's launch cfg as the world's only process.
// withAttest wires the guest owner attest.ForLaunch gives the launch, if
// it has anything to attest with.
func (w *world) boot(sc scheme, cfg firecracker.Config, withAttest bool) (*firecracker.Result, error) {
	if withAttest {
		a, err := attest.ForLaunch(w.host.PSP.VerificationKey(), cfg, w.seed)
		if err != nil {
			return nil, err
		}
		cfg.Attestor = a
	}
	var res *firecracker.Result
	w.spawn("boot", func(p *sim.Proc) (err error) {
		res, err = sc.boot(p, w.host, cfg)
		return err
	})
	return res, w.run()
}

// scheme identifies one boot configuration under test.
type scheme struct {
	name  string
	level sev.Level
	kind  firecracker.Scheme
}

var (
	schemeStock       = scheme{name: "stock-fc", level: sev.None, kind: firecracker.SchemeStock}
	schemeSEVeriFast  = scheme{name: "severifast", level: sev.SNP, kind: firecracker.SchemeSEVeriFastBz}
	schemeSEVFVmlinux = scheme{name: "severifast-vmlinux", level: sev.SNP, kind: firecracker.SchemeSEVeriFastVmlinux}
	schemeQEMU        = scheme{name: "qemu-ovmf", level: sev.SNP, kind: firecracker.SchemeQEMUOVMF}
)

// config is the one place an experiment's launch description is
// assembled; ablations edit the returned value.
func (sc scheme) config(preset kernelgen.Preset, initrd []byte) (firecracker.Config, error) {
	art, err := kernelgen.Cached(preset)
	if err != nil {
		return firecracker.Config{}, err
	}
	cfg := firecracker.Config{Preset: preset, Artifacts: art, Initrd: initrd, Level: sc.level, Scheme: sc.kind}
	if sc.kind != firecracker.SchemeQEMUOVMF && sc.level.Encrypted() {
		// SEVeriFast always runs with the out-of-band hash file (§4.3);
		// the in-band ablation clears it. QEMU hashes at launch.
		h, err := cfg.ComponentHashes()
		if err != nil {
			return firecracker.Config{}, err
		}
		cfg.Hashes = &h
	}
	return cfg, nil
}

// boot executes the launch on its monitor, on the calling process.
func (sc scheme) boot(p *sim.Proc, host *kvm.Host, cfg firecracker.Config) (*firecracker.Result, error) {
	res, err := firecracker.Boot(p, host, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", sc.name, cfg.Preset.Name, err)
	}
	return res, nil
}

// bootOnce runs one boot of (preset, scheme) on a fresh world and returns
// its breakdown-bearing result.
func bootOnce(model costmodel.Model, preset kernelgen.Preset, initrd []byte, sc scheme, seed int64, withAttest bool) (*firecracker.Result, error) {
	cfg, err := sc.config(preset, initrd)
	if err != nil {
		return nil, err
	}
	return newWorld(model, seed).boot(sc, cfg, withAttest)
}

// bootVariant is bootOnce of SEVeriFast-bz with an ablation applied to
// the launch config and the host before the boot.
func bootVariant(opts Options, preset kernelgen.Preset, ablate func(*firecracker.Config, *kvm.Host)) (*firecracker.Result, error) {
	cfg, err := schemeSEVeriFast.config(preset, opts.initrd())
	if err != nil {
		return nil, err
	}
	w := newWorld(opts.model(), opts.Seed)
	ablate(&cfg, w.host)
	return w.boot(schemeSEVeriFast, cfg, false)
}
