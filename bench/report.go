package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// WriteReport prints every metric of a run by name with its unit, the
// failures by reason, and the self-time table of the traced round.
func WriteReport(w io.Writer, r *RunResult) {
	fmt.Fprintf(w, "== %s (seed %d, %d rounds, GOMAXPROCS %d)\n", r.Workload, r.Seed, r.Rounds, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "   attempted %d, served %d", r.Attempted, r.Served)
	for _, k := range sortedKeys(r.Failures) {
		if r.Failures[k] != 0 {
			fmt.Fprintf(w, ", %s %d", k, r.Failures[k])
		}
	}
	fmt.Fprintln(w)
	if len(r.Notes) > 0 {
		fmt.Fprint(w, "   refusals by gate/reason:")
		for _, k := range sortedKeys(r.Notes) {
			fmt.Fprintf(w, " %s=%d", k, r.Notes[k])
		}
		fmt.Fprintln(w)
	}
	if r.Unvalidated {
		fmt.Fprintln(w, "   simulator accuracy: unvalidated (this workload has no paper reference)")
	}
	fmt.Fprintf(w, "   output digest %s\n", r.OutputDigest)
	for _, m := range EndToEnd {
		fmt.Fprintf(w, "   %-34s %16.4f %-8s (%s, %s is better)\n", m.Name, r.EndToEnd[m.Name], m.Unit, m.Kind, m.Better)
	}
	if r.PerLayer == nil {
		return
	}
	for _, m := range PerLayer {
		fmt.Fprintf(w, "   %-34s %16.4f %-8s (%s)\n", m.Name, r.PerLayer[m.Name], m.Unit, m.Kind)
	}
	fmt.Fprintln(w, "   self time of the traced round (span minus what its children cover):")
	for _, s := range r.SelfTimes {
		fmt.Fprintf(w, "     %-36s n=%-6d total %10.3f ms  self %10.3f ms\n", s.Name, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "   trace written to %s\n", r.TraceFile)
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AADiff compares one end-to-end metric between two sets of runs of the
// same code.
type AADiff struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Kind     Kind    `json:"kind"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// RelDiff is |b − a| / a. Host metrics must stay within Bound;
	// simulated ones must be exactly equal.
	RelDiff float64 `json:"rel_diff"`
	Bound   float64 `json:"bound"`
	Within  bool    `json:"within"`
}

// AAReport is what -aa writes under bench/results/.
type AAReport struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	AllWithin  bool         `json:"all_within"`
	Diffs      []AADiff     `json:"diffs"`
	A          []*RunResult `json:"a"`
	B          []*RunResult `json:"b"`
}

// CompareAA builds the A/A report from two sets of runs.
func CompareAA(a, b []*RunResult, seed int64, seconds float64) *AAReport {
	rep := &AAReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		AllWithin:  true,
		A:          a,
		B:          b,
	}
	for i := range a {
		for _, m := range EndToEnd {
			va, vb := a[i].EndToEnd[m.Name], b[i].EndToEnd[m.Name]
			d := AADiff{Workload: a[i].Workload, Metric: m.Name, Kind: m.Kind, A: va, B: vb, Bound: m.Bound}
			if va != 0 {
				d.RelDiff = math.Abs(vb-va) / math.Abs(va)
			}
			if m.Kind == Simulated {
				d.Bound = 0
				d.Within = math.Float64bits(va) == math.Float64bits(vb) && a[i].OutputDigest == b[i].OutputDigest
			} else {
				d.Within = d.RelDiff <= m.Bound
			}
			rep.AllWithin = rep.AllWithin && d.Within
			rep.Diffs = append(rep.Diffs, d)
		}
	}
	return rep
}
