package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// instrumentedRun drives one fully instrumented fleet run (registry on
// the engine, the host, and the orchestrator) and returns the registry
// and metrics for inspection.
func instrumentedRun(t *testing.T, arrivals int) (*telemetry.Registry, *Metrics) {
	t.Helper()
	reg := telemetry.NewRegistry()
	eng := sim.NewEngine()
	eng.SetTracer(reg)
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	host.Telemetry = reg
	o := New(eng, host, Config{Workers: 4, EnableWarm: true, Telemetry: reg})
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, eng, o, Workload{
		Arrivals:         arrivals,
		MeanInterarrival: 500 * time.Microsecond,
		ExecTime:         time.Millisecond,
		Tenants:          []string{"a", "b"},
		Images:           []*Image{img},
		Seed:             11,
	})
	return reg, o.Metrics()
}

// spanCount is the number of spans in reg's index named name whose last
// value for key is value; an empty key counts every span so named.
func spanCount(reg *telemetry.Registry, name, key, value string) int {
	n := 0
	for _, s := range reg.Spans() {
		last := ""
		for _, a := range s.Attrs {
			if a.Key == key {
				last = a.Value
			}
		}
		if s.Name == name && (key == "" || last == value) {
			n++
		}
	}
	return n
}

// TestFleetBootSpansMatchReport is the acceptance check: the per-tier
// fleet.boot span counts in the trace equal the fleet report's Boots
// totals exactly.
func TestFleetBootSpansMatchReport(t *testing.T) {
	reg, m := instrumentedRun(t, 16)
	if m.TotalBoots() != 16 {
		t.Fatalf("TotalBoots = %d, want 16", m.TotalBoots())
	}
	for tier := Tier(0); tier < numTiers; tier++ {
		got := spanCount(reg, "fleet.boot", "tier", tier.String())
		if got != m.Boots[tier] {
			t.Fatalf("fleet.boot spans for %v = %d, report says %d", tier, got, m.Boots[tier])
		}
	}
	// The registry's counter mirror must agree too.
	for tier := Tier(0); tier < numTiers; tier++ {
		c := reg.Counter("severifast_fleet_boots_total", telemetry.A("tier", tier.String()))
		if int(c.Value()) != m.Boots[tier] {
			t.Fatalf("boots counter for %v = %d, report says %d", tier, int(c.Value()), m.Boots[tier])
		}
	}
	// Every boot also produced a vm.boot span tree on a worker track.
	if got := spanCount(reg, "vm.boot", "", ""); got < m.TotalBoots() {
		t.Fatalf("vm.boot spans = %d, want >= %d", got, m.TotalBoots())
	}
	// PSP serialization is visible: launch commands as service spans.
	if got := spanCount(reg, "LAUNCH_START", "", ""); got == 0 {
		t.Fatal("no LAUNCH_START service spans on the psp track")
	}
}

// TestFleetTraceDeterminism: two identical seeded runs export
// byte-identical Chrome traces and Prometheus text.
func TestFleetTraceDeterminism(t *testing.T) {
	var traces, proms [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		reg, _ := instrumentedRun(t, 12)
		if err := reg.WriteChromeTrace(&traces[i]); err != nil {
			t.Fatal(err)
		}
		if err := reg.WritePrometheus(&proms[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Fatal("chrome traces differ between identical seeded runs")
	}
	if !bytes.Equal(proms[0].Bytes(), proms[1].Bytes()) {
		t.Fatal("prometheus output differs between identical seeded runs")
	}
	// And the trace is well-formed JSON with the expected track metadata.
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traces[0].Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tracks := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.Args["name"]] = true
		}
	}
	if !tracks["psp"] {
		t.Fatalf("trace has no psp track; tracks = %v", tracks)
	}
	var worker bool
	for name := range tracks {
		if strings.HasPrefix(name, "fleet-worker-") {
			worker = true
		}
	}
	if !worker {
		t.Fatalf("trace has no worker tracks; tracks = %v", tracks)
	}
}

// TestMetricsMirror checks the registry mirror of the remaining metrics
// families against the struct fields Report prints.
func TestMetricsMirror(t *testing.T) {
	reg, m := instrumentedRun(t, 16)
	if v := int(reg.Counter("severifast_fleet_submitted_total").Value()); v != m.Submitted {
		t.Fatalf("submitted mirror = %d, struct %d", v, m.Submitted)
	}
	if n := reg.Series("severifast_fleet_queue_wait_seconds").Count(); n != len(m.QueueWait) {
		t.Fatalf("queue wait mirror = %d observations, struct %d", n, len(m.QueueWait))
	}
	if n := reg.Series("severifast_fleet_end_to_end_seconds").Count(); n != len(m.EndToEnd) {
		t.Fatalf("end-to-end mirror = %d observations, struct %d", n, len(m.EndToEnd))
	}
	if v := reg.Gauge("severifast_fleet_queue_depth_max").Value(); int(v) != m.QueueDepthMax {
		t.Fatalf("queue depth mirror = %v, struct %d", v, m.QueueDepthMax)
	}
}
