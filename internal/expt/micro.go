package expt

import (
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/bootparams"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/lz4"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/mptable"
	"github.com/severifast/severifast/internal/pagetable"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// Fig3 reproduces the OVMF boot-process breakdown: one QEMU/OVMF SNP boot
// of the AWS kernel, decomposed into PI phases plus the boot verifier —
// showing the verifier is a small slice of >3 s of firmware.
func Fig3(opts Options) (*Table, error) {
	out, err := bootOnce(costmodel.Default(), kernelgen.AWS(), opts.initrd(), schemeQEMU, opts.Seed, false)
	if err != nil {
		return nil, err
	}
	tl := out.Timeline
	at := func(ev sev.TimingEvent) sim.Time {
		t, ok := tl.EventAt(ev)
		if !ok {
			t = 0
		}
		return t
	}
	b := out.Breakdown
	tab := &Table{
		Title:   "Figure 3: OVMF boot process breakdown (SEV-SNP, AWS kernel)",
		Note:    "The boot verifier is the only SEV-necessary stage; everything else is redundant bootstrap.",
		Columns: []string{"stage", "duration", "share"},
	}
	total := b.Total
	add := func(name string, d time.Duration) {
		tab.AddRow(name, ms(d), fmt.Sprintf("%.1f%%", 100*float64(d)/float64(total)))
	}
	add("qemu+pre-encryption (VMM)", b.VMM)
	add("  of which pre-encryption", b.PreEncryption)
	add("SEC", at(sev.EvFirmwarePEI).Sub(at(sev.EvFirmwareSEC)))
	add("PEI", at(sev.EvFirmwareDXE).Sub(at(sev.EvFirmwarePEI)))
	add("DXE", at(sev.EvFirmwareBDS).Sub(at(sev.EvFirmwareDXE)))
	add("BDS", at(sev.EvVerifierStart).Sub(at(sev.EvFirmwareBDS)))
	add("boot verifier", b.BootVerification)
	add("bootstrap loader", b.BootstrapLoader)
	add("linux boot", b.LinuxBoot)
	add("TOTAL", total)
	return tab, nil
}

// Fig4 reproduces the pre-encryption-vs-size line: LAUNCH_UPDATE_DATA over
// regions from 4 KiB to 64 MiB, per SEV level. Pre-encryption time is
// linear in bytes and prohibitive at kernel sizes.
func Fig4(opts Options) (*Table, error) {
	sizes := []int{4 << 10, 64 << 10, 256 << 10, 1 << 20, 3460300, 12 << 20, 23 << 20, 43 << 20, 64 << 20}
	tab := &Table{
		Title:   "Figure 4: pre-encryption time vs region size",
		Note:    "Linear in bytes; even the smallest kernels cost hundreds of ms (paper §3.2).",
		Columns: []string{"size", "sev", "sev-es", "sev-snp"},
	}
	for _, n := range sizes {
		row := []string{mib(n)}
		for _, level := range []sev.Level{sev.SEV, sev.ES, sev.SNP} {
			d, err := preEncryptOnce(opts, n, level)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(d))
		}
		tab.AddRow(row...)
	}
	return tab, nil
}

// preEncryptOnce measures a single LAUNCH_UPDATE_DATA of n bytes.
func preEncryptOnce(opts Options, n int, level sev.Level) (time.Duration, error) {
	w := newWorld(costmodel.Default(), opts.Seed)
	var elapsed time.Duration
	w.spawn("preenc", func(p *sim.Proc) error {
		mem := guestmem.New(uint64(n) + 1<<20)
		ctx, err := w.host.PSP.LaunchStart(p, mem, level, firecracker.LaunchPolicy(level, false))
		if err != nil {
			return err
		}
		start := p.Now()
		if err := ctx.LaunchUpdateData(p, 0, n, sev.PageNormal); err != nil {
			return err
		}
		elapsed = p.Now().Sub(start)
		return nil
	})
	return elapsed, w.run()
}

// Fig5 reproduces the measured-direct-boot step costs: copy, hash, and
// decompress for each kernel format and for the initrd, per preset. The
// takeaways: LZ4 bzImage wins for the kernel; raw wins for the initrd.
func Fig5(opts Options) (*Table, error) {
	m := costmodel.Default()
	tab := &Table{
		Title:   "Figure 5: measured direct boot step costs",
		Note:    "copy+hash scale with transferred bytes; decompression with uncompressed bytes.",
		Columns: []string{"component", "bytes", "copy", "hash", "decompress", "total"},
	}
	for _, preset := range opts.presets() {
		art, err := kernelgen.Cached(preset)
		if err != nil {
			return nil, err
		}
		add := func(name string, transfer, decompressed int, codec string) {
			cp, h := m.Copy(transfer), m.Hash(transfer)
			var dec time.Duration
			if decompressed > 0 {
				dec = m.Decompress(codec, decompressed)
			}
			tab.AddRow(name, mib(transfer), ms(cp), ms(h), ms(dec), ms(cp+h+dec))
		}
		add(preset.Name+"/vmlinux", len(art.VMLinux), 0, "")
		add(preset.Name+"/bzImage-lz4", len(art.BzImageLZ4), len(art.VMLinux), "lz4")
		gz, err := art.BzImageGzip()
		if err != nil {
			return nil, err
		}
		add(preset.Name+"/bzImage-gzip", len(gz), len(art.VMLinux), "gzip")
	}
	initrd := opts.initrd()
	compressed := lz4.Compress(initrd)
	tab.AddRow("initrd/raw", mib(len(initrd)), ms(m.Copy(len(initrd))), ms(m.Hash(len(initrd))), ms(0),
		ms(m.Copy(len(initrd))+m.Hash(len(initrd))))
	dec := m.Decompress("lz4", len(initrd))
	tab.AddRow("initrd/lz4", mib(len(compressed)), ms(m.Copy(len(compressed))), ms(m.Hash(len(compressed))), ms(dec),
		ms(m.Copy(len(compressed))+m.Hash(len(compressed))+dec))
	return tab, nil
}

// Fig7 reproduces the pre-encrypt-or-generate policy table: each boot
// structure, its size, its generator-code size, and the decision.
func Fig7(opts Options) (*Table, error) {
	tab := &Table{
		Title:   "Figure 7: boot data structures — pre-encrypt or generate?",
		Note:    "Pre-encrypt when the structure is smaller than the code that generates it.",
		Columns: []string{"structure", "purpose", "struct size", "code size", "decision"},
	}
	vcpus := 1
	tab.AddRow("mptable", "CPU config",
		fmt.Sprintf("%dB + %dB/CPU (%dB@%dcpu)", mptable.BaseSize, mptable.PerCPUSize, mptable.Size(vcpus), vcpus),
		fmt.Sprintf("%dB", mptable.GeneratorCodeSize), "pre-encrypt")
	tab.AddRow("cmdline", "kernel args",
		fmt.Sprintf("%dB", len(kernelgen.Lupine().Cmdline)), "n/a", "pre-encrypt")
	tab.AddRow("boot_params", "system info",
		fmt.Sprintf("%dB", bootparams.Size),
		fmt.Sprintf("%dB", bootparams.GeneratorCodeSize), "pre-encrypt")
	tab.AddRow("page tables", "paging in guest",
		fmt.Sprintf("%dB", pagetable.PDSize),
		fmt.Sprintf("%dB", pagetable.GeneratorCodeSize), "generate")
	return tab, nil
}

// Fig8 reproduces the guest-kernel artifact size table.
func Fig8(opts Options) (*Table, error) {
	tab := &Table{
		Title:   "Figure 8: guest kernels used in boot time experiments",
		Columns: []string{"kernel config", "vmlinux size", "bzImage size (lz4)", "bzImage size (gzip)"},
	}
	for _, preset := range opts.presets() {
		art, err := kernelgen.Cached(preset)
		if err != nil {
			return nil, err
		}
		gz, err := art.BzImageGzip()
		if err != nil {
			return nil, err
		}
		tab.AddRow(preset.Name, mib(len(art.VMLinux)), mib(len(art.BzImageLZ4)), mib(len(gz)))
	}
	return tab, nil
}

// RootOfTrust reports the byte counts behind the headline: what each flow
// pre-encrypts (not a paper figure, but the causal quantity).
func RootOfTrust(opts Options) (*Table, error) {
	tab := &Table{
		Title:   "Root-of-trust size: bytes pre-encrypted per flow",
		Columns: []string{"flow", "bytes", "modeled pre-encryption time"},
	}
	m := costmodel.Default()
	h := measure.HashComponents([]byte("k"), []byte("i"), "c")
	regions, err := measure.Plan(measure.Config{
		Verifier: make([]byte, 13*1024),
		Hashes:   h,
		Cmdline:  kernelgen.Lupine().Cmdline,
		VCPUs:    1,
		MemSize:  256 << 20,
		Level:    sev.SNP,
		Policy:   sev.DefaultPolicy(),
	})
	if err != nil {
		return nil, err
	}
	sevf := measure.PreEncryptedBytes(regions)
	tab.AddRow("severifast", fmt.Sprintf("%dB", sevf), ms(m.PreEncrypt(sevf)))
	ovmfBytes := (1 << 20) + (128 << 10) + 3*4096 + 4096
	tab.AddRow("qemu-ovmf", fmt.Sprintf("%dB", ovmfBytes), ms(m.PreEncrypt(ovmfBytes)))
	return tab, nil
}
