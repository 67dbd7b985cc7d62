package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/sim"
)

// goldenRegistry builds a small, fully deterministic registry by hand:
// one boot span tree on a vm track, a PSP service slot, a scheduler wait,
// an instant, and one instrument of each kind.
func goldenRegistry() *Registry {
	r := NewRegistry()
	root := r.StartSpan("vm-0", "vm.boot", 0, A("scheme", "severifast"), A("level", "sev-snp"))
	stage := r.StartSpan("vm-0", "vmm.stage", 1000)
	stage.Close(2500)
	r.TraceWait("vm-0", "psp", 2500, 3000)
	r.TraceService("vm-0", "psp", "LAUNCH_START", 3000, 3900)
	r.Emit("vm-0", "kernel entry", 4000)
	root.Close(5000)

	r.Counter("severifast_fleet_boots_total", A("tier", "cold")).Inc()
	r.Counter("severifast_fleet_boots_total", A("tier", "warm")).Add(2)
	r.Gauge("severifast_fleet_queue_depth_max").Max(3)
	s := r.Series("severifast_fleet_boot_latency_seconds")
	s.Observe(2 * time.Microsecond)
	s.Observe(4 * time.Microsecond)
	s.Observe(3 * time.Microsecond)
	return r
}

const goldenChrome = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"psp"}},
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"vm-0"}},
{"name":"vm.boot","cat":"vt","ph":"X","ts":0.000,"dur":5.000,"pid":1,"tid":2,"args":{"level":"sev-snp","scheme":"severifast"}},
{"name":"vmm.stage","cat":"vt","ph":"X","ts":1.000,"dur":1.500,"pid":1,"tid":2},
{"name":"wait psp","cat":"vt","ph":"X","ts":2.500,"dur":0.500,"pid":1,"tid":2,"args":{"resource":"psp"}},
{"name":"LAUNCH_START","cat":"vt","ph":"X","ts":3.000,"dur":0.900,"pid":1,"tid":1,"args":{"proc":"vm-0"}},
{"name":"kernel entry","cat":"vt","ph":"i","ts":4.000,"pid":1,"tid":2,"s":"t"}
]}
`

const goldenProm = `# TYPE severifast_fleet_boot_latency_seconds summary
severifast_fleet_boot_latency_seconds{quantile="0.5"} 3e-06
severifast_fleet_boot_latency_seconds{quantile="0.9"} 4e-06
severifast_fleet_boot_latency_seconds{quantile="0.99"} 4e-06
severifast_fleet_boot_latency_seconds_sum 9e-06
severifast_fleet_boot_latency_seconds_count 3
# TYPE severifast_fleet_boots_total counter
severifast_fleet_boots_total{tier="cold"} 1
severifast_fleet_boots_total{tier="warm"} 2
# TYPE severifast_fleet_queue_depth_max gauge
severifast_fleet_queue_depth_max 3
`

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenChrome {
		t.Fatalf("chrome trace mismatch:\ngot:\n%s\nwant:\n%s", got, goldenChrome)
	}
	// The golden must also be what it claims: valid JSON.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("traceEvents = %d, want 7", len(doc.TraceEvents))
	}
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenProm {
		t.Fatalf("prometheus mismatch:\ngot:\n%s\nwant:\n%s", got, goldenProm)
	}
}

func TestJSONSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSONSummary(&buf); err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if s.SpanCount != 4 || s.EventCount != 1 {
		t.Fatalf("spans/events = %d/%d, want 4/1", s.SpanCount, s.EventCount)
	}
	if s.SpansByName["vm.boot"] != 1 || s.SpansByName["LAUNCH_START"] != 1 {
		t.Fatalf("SpansByName = %v", s.SpansByName)
	}
	if s.HorizonNS != 5000 {
		t.Fatalf("HorizonNS = %d, want 5000", s.HorizonNS)
	}
}

// TestExportDeterminism: same construction, byte-identical output.
func TestExportDeterminism(t *testing.T) {
	var a, b, pa, pb bytes.Buffer
	goldenRegistry().WriteChromeTrace(&a)
	goldenRegistry().WriteChromeTrace(&b)
	goldenRegistry().WritePrometheus(&pa)
	goldenRegistry().WritePrometheus(&pb)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome trace differs between identical registries")
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Fatal("prometheus output differs between identical registries")
	}
}

func TestSpanNestingAndSubtree(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("vm-0", "vm.boot", 0)
	child := r.StartSpan("vm-0", "vmm.stage", 10)
	grand := r.StartSpan("vm-0", "verify kernel", 20)
	grand.Close(30)
	child.Close(40)
	sibling := r.StartSpan("vm-0", "linux.boot", 40)
	sibling.Close(90)
	root.Close(100)
	other := r.StartSpan("vm-1", "vm.boot", 5)
	other.Close(50)

	if child.Parent != root.ID || grand.Parent != child.ID || sibling.Parent != root.ID {
		t.Fatal("open-span stack did not parent spans correctly")
	}
	if other.Parent != 0 {
		t.Fatal("span on another track parented across tracks")
	}
	sub := r.Subtree(root)
	if len(sub) != 4 {
		t.Fatalf("Subtree = %d spans, want 4", len(sub))
	}
	if sub[0] != root {
		t.Fatal("Subtree does not start at the root")
	}
	if got := spanCount(r, "vm.boot", "", ""); got != 2 {
		t.Fatalf("SpanCount(vm.boot) = %d, want 2", got)
	}
}

func TestRecordRetroSpan(t *testing.T) {
	r := NewRegistry()
	s := r.Record("worker-0", "fleet.boot", 100, 900, A("tier", "cold"))
	if s == nil || !s.Done || s.Start != 100 || s.Stop != 900 {
		t.Fatalf("retro span = %+v", s)
	}
	if got := spanCount(r, "fleet.boot", "tier", "cold"); got != 1 {
		t.Fatalf("SpanCount by attr = %d, want 1", got)
	}
	if got := spanCount(r, "fleet.boot", "tier", "warm"); got != 0 {
		t.Fatalf("SpanCount wrong attr = %d, want 0", got)
	}
}

// TestNilRegistry: every instrumentation call on a nil registry (and the
// nil instruments it hands out) must be an inert no-op — call sites carry
// no guards.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	span := r.StartSpan("t", "n", 0)
	span.Close(10)
	span.Annotate("k", "v")
	r.Record("t", "n", 0, 5)
	r.Emit("t", "n", 0)
	r.Counter("c").Inc()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1)
	r.Gauge("g").Max(2)
	r.Series("s").Observe(time.Second)
	r.TraceWait("p", "res", 0, 1)
	r.TraceService("p", "res", "L", 0, 1)
	r.TraceIdle("p", 0, 1)
	if r.Spans() != nil || r.Events() != nil {
		t.Fatal("nil registry returned data")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryRace exercises the registry's concurrency claim: multiple
// goroutines (as when a shared measured-image cache invokes foreign-shard
// callbacks, or two engines share one registry) record spans, events, and
// instruments concurrently. Run under -race.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			track := []string{"vm-0", "vm-1", "psp", "kbs"}[g%4]
			for i := 0; i < 200; i++ {
				at := sim.Time(g*1000 + i*10)
				s := r.StartSpan(track, "work", at, A("g", track))
				s.Annotate("i", "x")
				s.Close(at + 5)
				r.Record(track, "retro", at, at+3)
				r.Emit(track, "tick", at)
				r.Counter("ops_total", A("track", track)).Inc()
				r.Gauge("depth").Max(float64(i))
				r.Series("lat").Observe(time.Duration(i) * time.Microsecond)
				spanCount(r, "work", "g", track)
			}
		}()
	}
	wg.Wait()
	if got := len(r.Spans()); got != 8*200*2 {
		t.Fatalf("spans = %d, want %d", got, 8*200*2)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"work"`) {
		t.Fatal("trace missing recorded spans")
	}
}

// TestTracerIntegration drives a real engine with the registry installed
// as tracer: a resource wait and a labeled service slot must appear as
// spans, and parked time as idle.
func TestTracerIntegration(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	eng.SetTracer(r)
	res := sim.NewResource("psp", 1)
	eng.Go("a", func(p *sim.Proc) {
		res.UseLabeled(p, 100, "LAUNCH_START")
	})
	eng.Go("b", func(p *sim.Proc) {
		res.UseLabeled(p, 100, "LAUNCH_START")
	})
	eng.Run()

	var service, wait int
	for _, s := range r.Spans() {
		switch {
		case s.Name == "LAUNCH_START" && s.Track == "psp":
			service++
		case s.Name == "wait psp":
			wait++
		}
	}
	if service != 2 {
		t.Fatalf("service spans = %d, want 2", service)
	}
	if wait != 1 {
		t.Fatalf("wait spans = %d, want 1 (second proc queued behind the first)", wait)
	}
}

// spanCount is the number of spans in r's index named name whose last
// value for key is value; an empty key counts every span so named. It
// reads under the registry's lock, so it may run beside writers.
func spanCount(r *Registry, name, key, value string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
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
