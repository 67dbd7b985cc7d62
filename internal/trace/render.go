package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/telemetry"
)

// eventLabels names the boot stages for rendering.
var eventLabels = map[sev.TimingEvent]string{
	sev.EvGuestEntry:     "guest entry",
	sev.EvVerifierStart:  "verifier start",
	sev.EvVerifierDone:   "verifier done",
	sev.EvBootstrapStart: "bootstrap start",
	sev.EvKernelEntry:    "kernel entry",
	sev.EvInitExec:       "init exec",
	sev.EvAttestStart:    "attest start",
	sev.EvAttestDone:     "attest done",
	sev.EvFirmwareSEC:    "fw SEC",
	sev.EvFirmwarePEI:    "fw PEI",
	sev.EvFirmwareDXE:    "fw DXE",
	sev.EvFirmwareBDS:    "fw BDS",
}

// EventName returns the rendering label for a guest timing event.
func EventName(ev sev.TimingEvent) string {
	if name := eventLabels[ev]; name != "" {
		return name
	}
	return fmt.Sprintf("ev%d", ev)
}

// RenderTimeline draws the boot as an ASCII Gantt chart, suitable for
// terminal output (sevf-boot -timeline): the telemetry span tree as
// depth-indented rows with proportional bars, then instant events as
// time markers. An unscoped timeline has no span tree to draw.
func (t *Timeline) RenderTimeline(width int) string {
	if t.root == nil {
		return "(no events recorded)\n"
	}
	if width < 40 {
		width = 72
	}
	spans := t.Spans()
	events := t.Events()
	root := t.root
	end := root.Stop
	if !root.Done {
		end = root.Start
		for _, s := range spans {
			if s.Done && s.Stop > end {
				end = s.Stop
			}
		}
		for _, e := range events {
			if e.At > end {
				end = e.At
			}
		}
	}
	total := end.Sub(root.Start)
	if total <= 0 {
		return "(no events recorded)\n"
	}

	depth := map[int]int{}
	for _, s := range spans { // creation order: parents precede children
		if s.ID == root.ID {
			depth[s.ID] = 0
			continue
		}
		depth[s.ID] = depth[s.Parent] + 1
	}
	rows := append([]*telemetry.Span(nil), spans...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Start != rows[j].Start {
			return rows[i].Start < rows[j].Start
		}
		return rows[i].ID < rows[j].ID
	})

	type row struct {
		name       string
		start, dur time.Duration
	}
	out := make([]row, 0, len(rows))
	nameW := 0
	for _, s := range rows {
		stop := s.Stop
		if !s.Done {
			stop = end
		}
		r := row{
			name:  strings.Repeat("  ", depth[s.ID]) + s.Name,
			start: s.Start.Sub(root.Start),
			dur:   stop.Sub(s.Start),
		}
		out = append(out, r)
		if len(r.name) > nameW {
			nameW = len(r.name)
		}
	}
	barW := width - nameW - 14
	if barW < 10 {
		barW = 10
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "boot timeline (total %v)\n", total.Round(10*time.Microsecond))
	for _, r := range out {
		startCol := int(int64(barW) * int64(r.start) / int64(total))
		endCol := int(int64(barW) * int64(r.start+r.dur) / int64(total))
		if endCol <= startCol {
			endCol = startCol + 1
		}
		if endCol > barW {
			endCol = barW
		}
		if startCol >= endCol {
			startCol = endCol - 1
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat("█", endCol-startCol)
		fmt.Fprintf(&sb, "%-*s |%-*s| %v\n", nameW, r.name, barW, bar,
			r.dur.Round(10*time.Microsecond))
	}
	for _, e := range events {
		fmt.Fprintf(&sb, "· %s @ %v\n", EventName(e.Ev), e.At.Sub(root.Start).Round(10*time.Microsecond))
	}
	return sb.String()
}

// RenderCDF draws an empirical CDF as ASCII, one row per quantile step.
func RenderCDF(title string, s Series, width int) string {
	if len(s) == 0 {
		return title + ": (no samples)\n"
	}
	if width < 30 {
		width = 60
	}
	points := s.CDF()
	lo := points[0].Value
	hi := points[len(points)-1].Value
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (n=%d, p50=%v, p99=%v)\n", title, len(s),
		s.Percentile(50).Round(10*time.Microsecond), s.Percentile(99).Round(10*time.Microsecond))
	for _, q := range []float64{10, 25, 50, 75, 90, 99, 100} {
		v := s.Percentile(q)
		col := int(int64(width) * int64(v-lo) / int64(span))
		if col > width {
			col = width
		}
		fmt.Fprintf(&sb, "p%-3.0f |%s▌ %v\n", q, strings.Repeat("─", col), v.Round(10*time.Microsecond))
	}
	return sb.String()
}
