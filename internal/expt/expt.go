// Package expt is the experiment harness: one runner per table and figure
// in the paper's evaluation (plus the motivation figures of §3 and the
// ablations DESIGN.md calls out). Each runner assembles the workload,
// drives the simulator, and returns a Table whose rows mirror what the
// paper plots.
//
// Determinism note: the simulator is deterministic, so repeated boots of
// the same configuration take identical virtual time. For the CDF
// experiment (Fig. 9) an optional, seeded host-noise model perturbs the
// process-start and kernel-init costs per run, standing in for the OS
// scheduling noise that spreads the paper's distributions.
package expt

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
)

// Options configures a harness run.
type Options struct {
	// Runs is the boots per configuration for distribution experiments
	// (the paper uses 100).
	Runs int
	// Seed drives all randomness (noise, artifact identities).
	Seed int64
	// Jitter enables the host-noise model for CDF spread.
	Jitter bool
	// Presets limits the kernel set (default: all three).
	Presets []kernelgen.Preset
	// InitrdSize is the attestation initrd size (default 16 MiB; tests
	// shrink it for speed).
	InitrdSize int
	// ConcurrencyPoints overrides Fig. 12's sweep (default 1..50).
	ConcurrencyPoints []int
}

func (o Options) runs() int {
	if o.Runs <= 0 {
		return 100
	}
	return o.Runs
}

func (o Options) presets() []kernelgen.Preset {
	if len(o.Presets) > 0 {
		return o.Presets
	}
	return kernelgen.Presets()
}

func (o Options) initrdSize() int {
	if o.InitrdSize > 0 {
		return o.InitrdSize
	}
	return kernelgen.DefaultInitrdSize
}

func (o Options) concurrencyPoints() []int {
	if len(o.ConcurrencyPoints) > 0 {
		return o.ConcurrencyPoints
	}
	return []int{1, 2, 5, 10, 20, 30, 40, 50}
}

// jitterModel perturbs host-noise-sensitive costs for one run.
func jitterModel(m costmodel.Model, rng *rand.Rand, on bool) costmodel.Model {
	if !on {
		return m
	}
	j := func(d time.Duration, frac float64) time.Duration {
		return time.Duration(float64(d) * (1 + frac*(rng.Float64()*2-1)))
	}
	m.VMMProcessStart = j(m.VMMProcessStart, 0.25)
	m.QEMUProcessStart = j(m.QEMUProcessStart, 0.15)
	m.VMMSetupMisc = j(m.VMMSetupMisc, 0.25)
	m.PSPCommandOverhead = j(m.PSPCommandOverhead, 0.10)
	return m
}

// jitterPreset perturbs the kernel-init time for one run.
func jitterPreset(p kernelgen.Preset, rng *rand.Rand, on bool) kernelgen.Preset {
	if !on {
		return p
	}
	p.LinuxBootBase = time.Duration(float64(p.LinuxBootBase) * (1 + 0.06*(rng.Float64()*2-1)))
	return p
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders an aligned text table.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ms formats a duration as fractional milliseconds, the paper's unit.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

// mib formats a byte count in MiB.
func mib(n int) string { return fmt.Sprintf("%.1fM", float64(n)/(1<<20)) }
