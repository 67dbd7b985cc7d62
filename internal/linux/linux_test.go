package linux

import (
	"errors"
	"strings"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/bootparams"
	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/mptable"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/verifier"
)

// plainGuest prepares a non-SEV machine with boot structures, the staged
// bzImage, and an initrd — the state a direct boot leaves before kernel
// entry. Returned ready for Boot.
func plainGuest(t *testing.T, p *sim.Proc, host *kvm.Host, mutate func(m *kvm.Machine)) (*kvm.Machine, *verifier.Handoff, kernelgen.Preset) {
	t.Helper()
	preset := kernelgen.Lupine()
	art, err := kernelgen.Cached(preset)
	if err != nil {
		t.Fatal(err)
	}
	initrd := kernelgen.BuildInitrd(1, 1<<20)
	m := host.NewMachine(p, 256<<20, sev.None)

	zp, err := bootparams.Build(bootparams.Params{
		CmdlinePtr:   measure.GPACmdline,
		CmdlineSize:  uint32(len(preset.Cmdline)),
		RamdiskImage: measure.GPAInitrd,
		RamdiskSize:  uint32(len(initrd)),
		E820:         bootparams.StandardE820(256 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Mem.HostWrite(measure.GPAZeroPage, zp))
	must(m.Mem.HostWrite(measure.GPACmdline, []byte(preset.Cmdline)))
	must(m.Mem.HostWrite(measure.GPAMPTable, mptable.Build(2, measure.GPAMPTable)))
	must(m.Mem.HostWriteAliased(measure.GPAInitrd, initrd))
	must(m.Mem.HostWriteAliased(measure.GPABzTarget, art.BzImageLZ4))
	if mutate != nil {
		mutate(m)
	}
	h := &verifier.Handoff{
		Kind:       verifier.KindBzImage,
		KernelGPA:  measure.GPABzTarget,
		KernelSize: len(art.BzImageLZ4),
		InitrdGPA:  measure.GPAInitrd,
		InitrdSize: len(initrd),
	}
	return m, h, preset
}

func runLinux(t *testing.T, mutate func(m *kvm.Machine)) (*BootReport, error) {
	t.Helper()
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	var rep *BootReport
	var err error
	eng.Go("vcpu", func(p *sim.Proc) {
		m, h, preset := plainGuest(t, p, host, mutate)
		rep, err = Boot(p, m, h, preset)
	})
	eng.Run()
	return rep, err
}

func TestBootToInit(t *testing.T) {
	rep, err := runLinux(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPUs != 2 {
		t.Fatalf("kernel saw %d CPUs, mptable said 2", rep.CPUs)
	}
	if !rep.InitrdOK {
		t.Fatal("initrd not mounted")
	}
	if rep.Entry != 0x1000000 {
		t.Fatalf("entry %#x", rep.Entry)
	}
	if rep.CmdlineLen == 0 {
		t.Fatal("cmdline not read")
	}
}

func TestBootFailsOnCorruptZeroPage(t *testing.T) {
	_, err := runLinux(t, func(m *kvm.Machine) {
		if err := m.Mem.HostWrite(measure.GPAZeroPage+0x202, []byte{0}); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "bootparams") {
		t.Fatalf("corrupt zero page booted: %v", err)
	}
}

func TestBootFailsOnCorruptMPTable(t *testing.T) {
	_, err := runLinux(t, func(m *kvm.Machine) {
		if err := m.Mem.HostWrite(measure.GPAMPTable+20, []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "mptable") {
		t.Fatalf("corrupt mptable booted: %v", err)
	}
}

func TestBootFailsOnCorruptBzImage(t *testing.T) {
	_, err := runLinux(t, func(m *kvm.Machine) {
		// Damage the boot-protocol magic of the staged kernel.
		if err := m.Mem.HostWrite(measure.GPABzTarget+0x202, []byte{0}); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil {
		t.Fatal("corrupt bzImage booted")
	}
}

// TestBootDecodesATamperedKernel: the staged bzImage aliases the image
// Cached interned, which remembers its vmlinux, and the loader places that
// vmlinux without decoding. A payload byte flipped in the image drops the
// memo, so the loader decodes the tampered payload for real and refuses the
// boot with bzimage.ErrBadPayload; once the flip is undone it boots again.
func TestBootDecodesATamperedKernel(t *testing.T) {
	art, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	img := artifact.Lookup(art.BzImageLZ4)
	if img == nil {
		t.Fatal("Cached did not intern the bzImage")
	}
	codecByte := bzimage.Overhead() + 4 // the payload container's codec tag
	boot := func() error {
		_, err := runLinux(t, nil)
		return err
	}
	if err := boot(); err != nil {
		t.Fatal(err)
	}
	img.Corrupt(codecByte, 0x04)
	err = boot()
	img.Corrupt(codecByte, 0x04)
	if !errors.Is(err, bzimage.ErrBadPayload) {
		t.Fatalf("a tampered kernel booted (err %v), want ErrBadPayload", err)
	}
	if err := boot(); err != nil {
		t.Fatalf("the restored kernel: %v", err)
	}
}

func TestBootFailsOnInitrdWithoutInit(t *testing.T) {
	// An initrd that parses but lacks /init: the kernel panics.
	_, err := runLinux(t, func(m *kvm.Machine) {
		bad := kernelgen.BuildInitrd(1, 1<<20)
		// Rename "init" in the archive: the name field is plain text in
		// the cpio; flip its first byte.
		idx := strings.Index(string(bad), "init")
		bad2 := append([]byte(nil), bad...)
		bad2[idx] = 'x'
		if err := m.Mem.HostWriteAliased(measure.GPAInitrd, bad2); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "init") {
		t.Fatalf("initrd without /init booted: %v", err)
	}
}

func TestSNPBootSlowerThanPlain(t *testing.T) {
	// The §6.2 multiplier: identical guests, SNP Linux init ~2.3x.
	boot := func(level sev.Level) sim.Time {
		eng := sim.NewEngine()
		host := kvm.NewHost(eng, costmodel.Default(), 1)
		var took sim.Time
		eng.Go("vcpu", func(p *sim.Proc) {
			preset := kernelgen.Lupine()
			m := host.NewMachine(p, 256<<20, level)
			// Measure just the modeled init time via kernelInit's sleep:
			// compare full boots instead, on the plain path.
			_ = m
			start := p.Now()
			d := preset.LinuxBootBase
			if level.HasRMP() {
				d = multDuration(d, host.Model.SNPLinuxBootMultiplier)
			}
			p.Sleep(d)
			took = p.Now() - start
		})
		eng.Run()
		return took
	}
	plain := boot(sev.None)
	snp := boot(sev.SNP)
	ratio := float64(snp) / float64(plain)
	if ratio < 2.2 || ratio > 2.4 {
		t.Fatalf("SNP/plain init ratio %.2f, want ~2.3 (paper §6.2)", ratio)
	}
}

func TestVmlinuxHandoffSkipsBootstrap(t *testing.T) {
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m, h, preset := plainGuest(t, p, host, nil)
		// Pretend the verifier already streamed the vmlinux: place its
		// text at the entry point and hand off KindVmlinux.
		art, err := kernelgen.Cached(preset)
		if err != nil {
			t.Error(err)
			return
		}
		if err := m.Mem.HostWriteAliased(0x1000000, art.VMLinux[:1<<20]); err != nil {
			t.Error(err)
			return
		}
		h.Kind = verifier.KindVmlinux
		h.Entry = 0x1000000
		rep, err := Boot(p, m, h, preset)
		if err != nil {
			t.Error(err)
			return
		}
		if rep.Entry != 0x1000000 {
			t.Errorf("entry %#x", rep.Entry)
		}
		if _, ok := m.Timeline.EventAt(sev.EvBootstrapStart); ok {
			t.Error("vmlinux handoff ran the bootstrap loader")
		}
	})
	eng.Run()
}

func TestBootEmitsOrderedEvents(t *testing.T) {
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	eng.Go("vcpu", func(p *sim.Proc) {
		m, h, preset := plainGuest(t, p, host, nil)
		if _, err := Boot(p, m, h, preset); err != nil {
			t.Error(err)
			return
		}
		bs, _ := m.Timeline.EventAt(sev.EvBootstrapStart)
		ke, _ := m.Timeline.EventAt(sev.EvKernelEntry)
		ie, _ := m.Timeline.EventAt(sev.EvInitExec)
		if !(bs < ke && ke < ie) {
			t.Errorf("event order: bootstrap %v, kernel %v, init %v", bs, ke, ie)
		}
	})
	eng.Run()
}

// A repeat boot of a registered image finds its initrd's parse memoized
// on the artifact, and that step allocates nothing: its memo key is a
// constant when the initrd is the whole artifact.
func TestMemoizedInitrdUnpackAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	var allocs float64
	var err error
	eng.Go("vcpu", func(p *sim.Proc) {
		m, h, _ := plainGuest(t, p, host, nil)
		if err = unpackInitrd(m, h.InitrdGPA, h.InitrdSize, false); err != nil {
			return
		}
		allocs = testing.AllocsPerRun(100, func() {
			if e := unpackInitrd(m, h.InitrdGPA, h.InitrdSize, false); e != nil {
				err = e
			}
		})
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a memoized initrd unpack allocates %.1f times, want 0", allocs)
	}
}
