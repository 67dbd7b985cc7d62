package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/kbs"
)

func TestRunDefaultsSmall(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-arrivals", "12", "-workers", "4", "-mean", "1ms", "-exec", "1ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"sevf-fleet: lupine, 4 workers, 12 arrivals",
		"virtual makespan",
		"12 submitted, 12 served",
		"cache: 11 hits, 1 misses",
		"1 plans",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunWarmAndFaults: a warm fleet against a remote broker whose
// transport drops every third challenge or redeem retries each drop and
// serves every boot, and the report counts the drops as faults.
func TestRunWarmAndFaults(t *testing.T) {
	broker := kbs.NewBroker(kbs.NewAuthority(1).Root(), kbs.Config{
		MinTCB:   kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 115},
		NonceTTL: time.Minute,
		Seed:     1,
	})
	broker.AddTenant("tenant-0", []byte("k"))
	broker.AddTenant("tenant-1", []byte("k"))
	h := broker.Handler()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/claim" && calls.Add(1)%3 == 0 {
			http.Error(w, "broker overloaded", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var sb strings.Builder
	err := run([]string{
		"-arrivals", "8", "-workers", "2", "-tenants", "2", "-warm",
		"-kbs-url", srv.URL, "-retries", "6", "-mean", "2ms",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"warm pool", "8 submitted, 8 served", "attest: 8 granted", "faults:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBackpressureReport(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-arrivals", "24", "-workers", "1", "-queue", "2", "-mean", "10us"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rejected") {
		t.Fatalf("report missing rejection counts:\n%s", sb.String())
	}
}

func TestRunDeterministic(t *testing.T) {
	invoke := func() string {
		var sb strings.Builder
		if err := run([]string{"-arrivals", "10", "-workers", "2", "-seed", "7"}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := invoke(), invoke(); a != b {
		t.Fatalf("same seed produced different reports:\n%s\n---\n%s", a, b)
	}
}

func TestRunKBSInProcess(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-arrivals", "8", "-workers", "2", "-tenants", "2",
		"-kbs", "-chip", "chip-7", "-tcb", "2.1.8.115",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"kbs in-process", "attest: 8 granted"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunKBSDenialCounters: a platform below the broker's minimum TCB is
// refused, the refusal is the run's error, and the report printed before
// it counts the denial by reason.
func TestRunKBSDenialCounters(t *testing.T) {
	t.Run("stale-tcb", func(t *testing.T) {
		var sb strings.Builder
		err := run([]string{
			"-arrivals", "3", "-workers", "1", "-kbs",
			"-tcb", "2.1.8.114", "-min-tcb", "2.1.8.115",
		}, &sb)
		if err == nil || !strings.Contains(err.Error(), "denied (stale-tcb)") {
			t.Fatalf("run error = %v, want a stale-tcb denial\n%s", err, sb.String())
		}
		if !regexp.MustCompile(`(?m)^  denials:.* stale-tcb=[1-9][0-9]*\b`).MatchString(sb.String()) {
			t.Fatalf("report has no denials line with a stale-tcb count:\n%s", sb.String())
		}
	})
}

func TestRunKBSDeterministic(t *testing.T) {
	invoke := func() string {
		var sb strings.Builder
		if err := run([]string{
			"-arrivals", "10", "-workers", "2", "-seed", "7", "-kbs",
		}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := invoke(), invoke(); a != b {
		t.Fatalf("same seed produced different reports:\n%s\n---\n%s", a, b)
	}
}

// TestRunTraceExport is the CLI acceptance check for the telemetry spine:
// -trace-out must emit valid Chrome trace JSON whose per-tier fleet.boot
// span counts equal the Boots totals the report prints, and same-seed runs
// must export byte-identical files.
func TestRunTraceExport(t *testing.T) {
	invoke := func(dir string) (report string, trace, metrics []byte) {
		var sb strings.Builder
		tracePath := filepath.Join(dir, "trace.json")
		metricsPath := filepath.Join(dir, "metrics.prom")
		err := run([]string{
			"-arrivals", "12", "-workers", "4", "-warm", "-kbs", "-seed", "3",
			"-trace-out", tracePath, "-metrics-out", metricsPath,
		}, &sb)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), tb, mb
	}
	report, trace, metrics := invoke(t.TempDir())

	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("-trace-out is not valid JSON: %v", err)
	}
	spansByTier := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "fleet.boot" {
			spansByTier[ev.Args["tier"]]++
		}
	}
	// The report prints one "<tier> N boots" line per tier.
	tierLine := regexp.MustCompile(`(?m)^  (\S+)\s+(\d+) boots`)
	var tiers int
	for _, m := range tierLine.FindAllStringSubmatch(report, -1) {
		tiers++
		want := m[2]
		if got := spansByTier[m[1]]; strings.TrimLeft(want, "0") == "" && got != 0 {
			t.Errorf("tier %s: %d fleet.boot spans, report says 0", m[1], got)
		} else if strings.TrimLeft(want, "0") != "" && got != atoi(t, want) {
			t.Errorf("tier %s: %d fleet.boot spans, report says %s", m[1], got, want)
		}
	}
	if tiers == 0 {
		t.Fatalf("report has no tier lines:\n%s", report)
	}
	if !strings.Contains(string(metrics), "severifast_fleet_boots_total") {
		t.Fatal("-metrics-out missing fleet boot counters")
	}

	report2, trace2, metrics2 := invoke(t.TempDir())
	// The trailing "written to <path>" lines embed the temp dir; compare
	// the report body and the exported bytes.
	body := func(s string) string { return strings.Split(s, "\ntrace written")[0] }
	if body(report) != body(report2) || string(trace) != string(trace2) || string(metrics) != string(metrics2) {
		t.Fatal("same-seed runs produced different exports")
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-preset", "plan9"},
		{"-arrivals", "0"},
		{"-tenants", "0"},
		{"-workers", "0"},
		{"-kbs", "-tcb", "not-a-tcb"},
		{"-kbs", "-min-tcb", "9"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
