// sevf-mkkernel builds the synthetic guest artifacts to files: the vmlinux
// ELF, LZ4 and gzip bzImages, and the attestation initrd. Sizes follow the
// paper's Fig. 8 (Lupine 23M/3.3M, AWS 43M/7.1M, Ubuntu 61M/15M).
//
//	sevf-mkkernel -preset aws -out ./artifacts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/severifast/severifast/internal/kernelgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sevf-mkkernel", flag.ContinueOnError)
	var (
		preset = fs.String("preset", "aws", "kernel preset: lupine | aws | ubuntu | all")
		outDir = fs.String("out", "artifacts", "output directory")
		initrd = fs.Int("initrd", 16, "initrd size (MiB)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	var presets []kernelgen.Preset
	if *preset == "all" {
		presets = kernelgen.Presets()
	} else {
		p, err := kernelgen.PresetByName(*preset)
		if err != nil {
			return err
		}
		presets = []kernelgen.Preset{p}
	}

	write := func(name string, data []byte) error {
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "%-32s %9.1f MiB\n", path, float64(len(data))/(1<<20))
		return nil
	}

	for _, p := range presets {
		art, err := kernelgen.Cached(p)
		if err != nil {
			return err
		}
		if err := write("vmlinux-"+p.Name, art.VMLinux); err != nil {
			return err
		}
		if err := write("bzImage-"+p.Name+".lz4", art.BzImageLZ4); err != nil {
			return err
		}
		gz, err := art.BzImageGzip()
		if err != nil {
			return err
		}
		if err := write("bzImage-"+p.Name+".gz", gz); err != nil {
			return err
		}
	}
	return write("initrd.img", kernelgen.BuildInitrd(1, *initrd<<20))
}
