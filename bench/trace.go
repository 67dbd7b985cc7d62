package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/cluster"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/sim"
)

// Span is one host-time interval recorded by the harness around a call
// into a layer. Times are nanoseconds since the round started; Parent is
// the index of the enclosing span, -1 at the top.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	RoundID int    `json:"round_id"`
}

// Tracer keeps spans in memory until the round ends. Simulation processes
// run strictly one at a time, handing control over channels, so every
// span opened inside eng.Run nests inside the span around it and one
// stack serves all goroutines. A nil *Tracer records nothing: untraced
// rounds pass nil and pay one nil check per call site.
type Tracer struct {
	t0      time.Time
	roundID int
	spans   []Span
	stack   []int
}

// NewTracer starts a trace whose zero is now.
func NewTracer(roundID int) *Tracer {
	return &Tracer{t0: time.Now(), roundID: roundID}
}

// Begin opens a span under the innermost open one.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, StartNs: int64(time.Since(t.t0)), Parent: parent, RoundID: t.roundID})
	t.stack = append(t.stack, id)
	return id
}

// End closes the span Begin returned; it must be the innermost open one.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %q closed out of order", t.spans[id].Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// Spans returns the recorded spans in creation order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// SelfRow is one line of the self-time table: all spans of one name.
type SelfRow struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	// SelfNs is the total minus the part direct children cover.
	SelfNs int64 `json:"self_ns"`
}

// SelfTimes folds spans into the self-time table, sorted by self time.
func SelfTimes(spans []Span) []SelfRow {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string]*SelfRow{}
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &SelfRow{Name: s.Name}
			byName[s.Name] = r
		}
		d := s.EndNs - s.StartNs
		r.Count++
		r.TotalNs += d
		r.SelfNs += d - child[i]
	}
	rows := make([]SelfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfNs != rows[j].SelfNs {
			return rows[i].SelfNs > rows[j].SelfNs
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// durations returns the length of every span of the given name, in order.
func durations(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

func selfOf(rows []SelfRow, name string) (total, self time.Duration, count int) {
	for _, r := range rows {
		if r.Name == name {
			return time.Duration(r.TotalNs), time.Duration(r.SelfNs), r.Count
		}
	}
	return 0, 0, 0
}

// WriteChromeTrace writes spans as Chrome trace-event JSON (load in
// Perfetto or chrome://tracing) followed by the self-time table under
// the "selfTimes" key, which viewers ignore.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "round_id": s.RoundID},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"selfTimes":       SelfTimes(spans),
	})
}

// simTracer implements sim.Tracer for the traced round: it counts the
// scheduler's wait, service and parked intervals and keeps the PSP's
// queue waits and service time, all in simulated time.
type simTracer struct {
	waits, services, idles int
	pspWaits               []time.Duration
	pspService             time.Duration
}

func isPSP(resource string) bool { return strings.HasPrefix(resource, "psp") }

func (t *simTracer) TraceWait(_, resource string, from, to sim.Time) {
	t.waits++
	if isPSP(resource) {
		t.pspWaits = append(t.pspWaits, to.Sub(from))
	}
}

func (t *simTracer) TraceService(_, resource, _ string, from, to sim.Time) {
	t.services++
	if isPSP(resource) {
		t.pspService += to.Sub(from)
	}
}

func (t *simTracer) TraceIdle(_ string, _, _ sim.Time) { t.idles++ }

// absorbChromeTrace adds the scheduler intervals of a facade host to the
// counts. A severifast.Host installs its own registry as the engine's
// tracer and exports it only as a Chrome trace: waits are spans named
// "wait <resource>", parked gaps "parked", and service periods every
// span on the resource's own track.
func (t *simTracer) absorbChromeTrace(r io.Reader) error {
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  json.Number       `json:"dur"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("bench: facade trace: %w", err)
	}
	track := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			track[ev.Tid] = ev.Args["name"]
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		micros, err := ev.Dur.Float64()
		if err != nil {
			return fmt.Errorf("bench: facade trace: span %q: %w", ev.Name, err)
		}
		d := time.Duration(micros * float64(time.Microsecond))
		switch resource, isWait := strings.CutPrefix(ev.Name, "wait "); {
		case isWait:
			t.waits++
			if isPSP(resource) {
				t.pspWaits = append(t.pspWaits, d)
			}
		case ev.Name == "parked":
			t.idles++
		case isPSP(track[ev.Tid]):
			t.services++
			t.pspService += d
		}
	}
	return nil
}

// tracedKBS wraps the broker each host sees: one span per Challenge and
// Redeem. Provisioning and statistics pass straight through.
type tracedKBS struct {
	kbs.Service
	tr *Tracer
}

func (k tracedKBS) Challenge(tenant string, now sim.Time) (kbs.Challenge, error) {
	id := k.tr.Begin("kbs.Challenge")
	defer k.tr.End(id)
	return k.Service.Challenge(tenant, now)
}

func (k tracedKBS) Redeem(req kbs.RedeemRequest, now sim.Time) (*kbs.RedeemResult, error) {
	id := k.tr.Begin("kbs.Redeem")
	defer k.tr.End(id)
	return k.Service.Redeem(req, now)
}

// tracedPolicy wraps a placement policy: one span per Place.
type tracedPolicy struct {
	cluster.Policy
	tr *Tracer
}

func (p tracedPolicy) Place(c *cluster.Cluster, img *cluster.Image, avail []*cluster.HostShard) *cluster.HostShard {
	id := p.tr.Begin("cluster.Policy.Place")
	defer p.tr.End(id)
	return p.Policy.Place(c, img, avail)
}
