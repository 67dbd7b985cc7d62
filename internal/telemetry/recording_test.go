package telemetry

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/severifast/severifast/internal/sim"
)

// TestInstrumentHitsAllocateNothing: looking up an instrument that
// already exists builds its key on the stack, so a hit allocates nothing
// whatever the order of its attributes.
func TestInstrumentHitsAllocateNothing(t *testing.T) {
	r := NewRegistry()
	r.Counter("boots_total", A("tier", "cold"), A("host", "h0"))
	r.Gauge("depth", A("queue", "psp"))
	r.Series("latency")
	for name, fn := range map[string]func(){
		"Counter": func() { r.Counter("boots_total", A("host", "h0"), A("tier", "cold")).Inc() },
		"Gauge":   func() { r.Gauge("depth", A("queue", "psp")).Max(3) },
		"Series":  func() { r.Series("latency").Count() },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s hit allocates %.1f times, want 0", name, got)
		}
	}
}

// TestInstrumentKey: attributes in any order name one instrument, which
// keeps them sorted by key; equal keys keep their call order.
func TestInstrumentKey(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", A("b", "2"), A("a", "1"), A("c", "3"))
	if b := r.Counter("c", A("c", "3"), A("a", "1"), A("b", "2")); a != b {
		t.Fatal("attribute order split one counter in two")
	}
	if r.Counter("c", A("a", "1")) == a || r.Counter("c") == a {
		t.Fatal("a different attribute set shares the counter")
	}
	want := []Attr{A("a", "1"), A("b", "2"), A("c", "3")}
	if fmt.Sprint(a.Attrs) != fmt.Sprint(want) {
		t.Fatalf("Attrs = %v, want %v", a.Attrs, want)
	}
	d := r.Gauge("g", A("k", "x"), A("a", "0"), A("k", "y"))
	if got := fmt.Sprint(d.Attrs); got != "[{a 0} {k x} {k y}]" {
		t.Fatalf("duplicate keys reordered: %s", got)
	}
	if r.Counter("c").Attrs != nil {
		t.Fatal("an attribute-free counter carries an empty slice")
	}
	if _, ok := r.Summarize().Counters["c{a=1,b=2,c=3}"]; !ok {
		t.Fatalf("summary keys = %v", r.Summarize().Counters)
	}
}

// TestAnnotateAllocatesNothing: a span's first four attributes land in a
// run carved from the registry's attribute slab, so annotating costs no
// allocation of its own; one full slab chunk serves 32 such spans.
func TestAnnotateAllocatesNothing(t *testing.T) {
	const runs = 100
	r := NewRegistry()
	spans := make([]*Span, runs+1)
	for i := range spans {
		spans[i] = r.StartSpan("vm-0", "vm.boot", sim.Time(i))
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		s := spans[next]
		next++
		s.Annotate("scheme", "severifast")
		s.Annotate("level", "sev-snp")
		s.Annotate("codec", "lz4")
		s.Annotate("asid", "1")
	})
	if got != 0 {
		t.Fatalf("four annotations allocate %.1f times per span, want 0", got)
	}
	s := spans[0]
	s.Annotate("tier", "warm")
	want := "[{scheme severifast} {level sev-snp} {codec lz4} {asid 1} {tier warm}]"
	if fmt.Sprint(s.Attrs) != want || fmt.Sprint(spans[1].Attrs) != "[{scheme severifast} {level sev-snp} {codec lz4} {asid 1}]" {
		t.Fatalf("attrs = %v / %v", s.Attrs, spans[1].Attrs)
	}
}

// TestSpansAllocatePerSlab: 10 k spans (half opened and closed with an
// attribute, half recorded) cost a few slab chunks and slice growths,
// not an allocation each.
func TestSpansAllocatePerSlab(t *testing.T) {
	const n = 10000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := NewRegistry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n/2; i++ {
		at := sim.Time(10 * i)
		s := r.StartSpan("vm-0", "vm.boot", at, A("tier", "warm"))
		r.Record("vm-0", "wait psp", at, at+3)
		s.Close(at + 5)
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / n; got > 0.05 {
		t.Fatalf("recording a span allocates %.3f times on average, ceiling 0.05", got)
	}
	if len(r.Spans()) != n {
		t.Fatalf("spans = %d, want %d", len(r.Spans()), n)
	}
}

// subtreeScan and horizonScan are the full-registry scans Subtree and
// Horizon replaced, kept as their reference.
func subtreeScan(r *Registry, root *Span) []*Span {
	in := map[int]bool{root.ID: true}
	out := []*Span{root}
	for _, s := range r.Spans() {
		if s.ID != root.ID && in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

func horizonScan(r *Registry) sim.Time {
	var h sim.Time
	for _, s := range r.Spans() {
		h = max(h, s.Start)
		if s.Done {
			h = max(h, s.Stop)
		}
	}
	for _, e := range r.Events() {
		h = max(h, e.At)
	}
	return h
}

// TestSubtreeAndHorizonMatchFullScan drives random interleaved tracks —
// nested opens, closes out of order, retrospective records (some ending
// before they start), instants, spans left open — and holds Subtree of
// every span and Horizon to the full scans after every step.
func TestSubtreeAndHorizonMatchFullScan(t *testing.T) {
	tracks := []string{"vm-0", "vm-1", "psp", "kbs"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		var open []*Span
		for step := 0; step < 300; step++ {
			track := tracks[rng.Intn(len(tracks))]
			at := sim.Time(rng.Intn(10000))
			switch k := rng.Intn(10); {
			case k < 4:
				open = append(open, r.StartSpan(track, "s", at))
			case k < 7 && len(open) > 0:
				i := rng.Intn(len(open))
				open[i].Close(at)
				open = append(open[:i], open[i+1:]...)
			case k < 9:
				r.Record(track, "r", at, at+sim.Time(rng.Intn(200)-50))
			default:
				r.Emit(track, "e", at)
			}
			if got, want := r.Horizon(), horizonScan(r); got != want {
				t.Fatalf("seed %d step %d: Horizon = %d, full scan %d", seed, step, got, want)
			}
		}
		for _, root := range r.Spans() {
			got, want := r.Subtree(root), subtreeScan(r, root)
			if fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) {
				t.Fatalf("seed %d: Subtree(%d) = %v, full scan %v", seed, root.ID, ids(got), ids(want))
			}
		}
	}
}

// TestStopIndexing: a registry that stopped indexing lists no span or
// event yet keeps its horizon and instruments; an open root's subtree is
// what an indexed registry gives, and stays readable once the root has
// closed and let go of it.
func TestStopIndexing(t *testing.T) {
	r := NewRegistry()
	r.StopIndexing()
	for i := 0; i < 3; i++ {
		at := sim.Time(10 * i)
		root := r.StartSpan("pool", "vm.boot", at)
		s := r.StartSpan("pool", "snapshot.restore", at+1)
		r.TraceWait("pool", "psp", at+2, at+3)
		s.Close(at + 4)
		r.Emit("pool", "init exec", at+5)
		r.Counter("boots").Inc()
		tree := r.Subtree(root)
		want := fmt.Sprint([]int{root.ID, root.ID + 1, root.ID + 2})
		if fmt.Sprint(ids(tree)) != want || tree[2].Name != "wait psp" || tree[2].Parent != s.ID {
			t.Fatalf("boot %d: open root's subtree = %v, want %s", i, ids(tree), want)
		}
		root.Close(at + 9)
		if got := r.Subtree(root); len(got) != 1 || got[0] != root {
			t.Fatalf("boot %d: closed root's subtree = %v, want the root alone", i, ids(got))
		}
		if fmt.Sprint(ids(tree)) != want {
			t.Fatalf("boot %d: the subtree read before the close became %v", i, ids(tree))
		}
	}
	if r.Spans() != nil || r.Events() != nil || spanCount(r, "vm.boot", "", "") != 0 {
		t.Fatal("a registry that stopped indexing lists what it recorded")
	}
	if r.Horizon() != 29 || r.Counter("boots").Value() != 3 {
		t.Fatalf("horizon %d, boots %d: want 29 and 3", r.Horizon(), r.Counter("boots").Value())
	}
}

func ids(spans []*Span) []int {
	out := make([]int, len(spans))
	for i, s := range spans {
		out[i] = s.ID
	}
	return out
}

// recordBoot records what a forked boot leaves in its host's registry: a
// root with four annotations, two stages, a scheduler wait and an
// instant, on the boot's own track.
func recordBoot(r *Registry, at sim.Time) *Span {
	root := r.StartSpan("pool", "vm.boot", at)
	root.Annotate("scheme", "severifast")
	root.Annotate("level", "sev-snp")
	root.Annotate("tier", "warm")
	root.Annotate("asid", "7")
	s := r.StartSpan("pool", "snapshot.restore", at+1)
	r.TraceWait("pool", "psp", at+2, at+3)
	s.Close(at + 4)
	r.Emit("pool", "init exec", at+5)
	r.Record("pool", "attest", at+5, at+8)
	root.Close(at + 9)
	return root
}

// BenchmarkSubtreeAfterBoots: one boot's Subtree costs the same whether
// the registry holds one earlier boot or twenty thousand.
func BenchmarkSubtreeAfterBoots(b *testing.B) {
	for _, prior := range []int{1, 1000, 20000} {
		b.Run(fmt.Sprintf("prior=%d", prior), func(b *testing.B) {
			r := NewRegistry()
			for i := 0; i < prior; i++ {
				recordBoot(r, sim.Time(10*i))
			}
			at := sim.Time(10 * prior)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root := recordBoot(r, at)
				at += 10
				if len(r.Subtree(root)) != 4 || r.Horizon() != at-1 {
					b.Fatal("boot subtree or horizon wrong")
				}
			}
		})
	}
}
