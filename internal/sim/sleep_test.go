package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// parkSleep is Sleep without its shortcut: it always queues its wake-up
// and parks, as every Sleep did before a sleeper whose wake-up is next
// kept running. It is the reference Proc.Sleep is held to.
func parkSleep(p *Proc, d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.stepAt(p.eng.now.Add(d), p)
	p.park()
}

// chooser is where the model generator takes its choices from: a
// *rand.Rand, or the bytes of a fuzz input.
type chooser interface{ Intn(n int) int }

// byteChoices reads one choice per byte, and zeros once it runs out.
type byteChoices []byte

func (b *byteChoices) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

type opKind int

const (
	opSleep    opKind = iota // sleep d
	opSleepMax               // Sleep(math.MaxInt64): the wake-up wraps below now
	opAfter                  // an After(d) timer; arg 1 also wakes a parked process
	opAt                     // an At(now+d) timer
	opUse                    // hold resource arg (capacity arg+1) for d
	opWait                   // wait on signal arg
	opFire                   // fire signal arg
	opPark                   // park until woken
	opWake                   // wake the longest-parked process
	opJob                    // hand the worker child as a job, unless it is busy
	opGo                     // start child as a process
)

// op is one step of a model process's script.
type op struct {
	kind  opKind
	d     time.Duration
	arg   int
	label string
	child []op
}

// model is what the generator draws: two phases run one after the other
// on one engine, each a list of process scripts and the instant after
// which it stops parking and fires every signal, so that it always ends.
type model struct {
	procs   [2][][]op
	horizon [2]time.Duration
}

func genModel(c chooser) model {
	var m model
	for ph := range m.procs {
		m.horizon[ph] = [...]time.Duration{4, 9, time.Millisecond}[c.Intn(3)]
		n := 1 + c.Intn(4)
		for i := 0; i < n; i++ {
			m.procs[ph] = append(m.procs[ph], genScript(c, fmt.Sprintf("%d.%d", ph, i), 2))
		}
	}
	return m
}

func genScript(c chooser, name string, depth int) []op {
	ops := make([]op, 1+c.Intn(10))
	for i := range ops {
		o := op{label: fmt.Sprintf("%s/%d", name, i), d: time.Duration([...]int{0, 0, 1, 1, 2, 3}[c.Intn(6)])}
		switch k := c.Intn(64); {
		case k < 24:
			o.kind = opSleep
		case k < 25 && c.Intn(8) == 0:
			o.kind = opSleepMax
		case k < 29:
			o.kind, o.arg = opAfter, c.Intn(2)
		case k < 31:
			o.kind = opAt
		case k < 39:
			o.kind, o.arg = opUse, c.Intn(2)
		case k < 43:
			o.kind, o.arg = opWait, c.Intn(3)
		case k < 47:
			o.kind, o.arg = opFire, c.Intn(3)
		case k < 51:
			o.kind = opPark
		case k < 55:
			o.kind = opWake
		case k < 59 && depth > 0:
			o.kind, o.child = opJob, genScript(c, o.label+"j", depth-1)
		case depth > 0:
			o.kind, o.child = opGo, genScript(c, o.label+"g", depth-1)
		default:
			o.kind = opSleep
		}
		ops[i] = o
	}
	return ops
}

// logLine is the engine's state after one operation of a model.
type logLine struct {
	now   Time
	seq   uint64
	label string
	what  string
}

// world runs a model with one sleep function and logs it.
type world struct {
	e      *Engine
	sleep  func(*Proc, time.Duration)
	log    []logLine
	res    [2]*Resource
	sig    [3]*Signal
	parked []*Proc // parked with Park, longest first
	closed bool    // past the phase's horizon: Park parks no more
	worker *Worker
	busy   bool // the worker has a job
}

func runModel(m model, sleep func(*Proc, time.Duration)) []logLine {
	e := NewEngine()
	w := &world{e: e, sleep: sleep, worker: NewWorker(e, "worker")}
	w.res = [2]*Resource{NewResource("r1", 1), NewResource("r2", 2)}
	for ph, procs := range m.procs {
		w.sig = [3]*Signal{NewSignal(), NewSignal(), NewSignal()}
		w.closed = false
		e.After(m.horizon[ph], w.close)
		for _, script := range procs {
			e.Go(script[0].label, func(p *Proc) { w.run(p, script) })
		}
		e.Run()
		w.note(fmt.Sprint("phase ", ph), "ran")
		// The second phase reuses the engine, and its first job starts
		// a new worker process while the closed one ends.
		w.worker.Close()
	}
	return w.log
}

func (w *world) note(label, what string) {
	w.log = append(w.log, logLine{w.e.now, w.e.seq, label, what})
}

func (w *world) close() {
	w.closed = true
	for _, s := range w.sig {
		s.Fire(w.e)
	}
	for len(w.parked) > 0 {
		w.wakeOne()
	}
	w.note("close", "fired")
}

func (w *world) wakeOne() {
	if len(w.parked) == 0 {
		return
	}
	q := w.parked[0]
	w.parked = w.parked[1:]
	w.e.Wake(q)
}

func (w *world) run(p *Proc, script []op) {
	for i := range script {
		o := &script[i]
		what := "done"
		switch o.kind {
		case opSleep:
			w.sleep(p, o.d)
		case opSleepMax:
			w.sleep(p, math.MaxInt64)
		case opAfter:
			w.e.After(o.d, func() {
				if o.arg == 1 {
					w.wakeOne()
				}
				w.note(o.label, "fired")
			})
		case opAt:
			w.e.At(w.e.now.Add(o.d), func() { w.note(o.label, "fired") })
		case opUse:
			r := w.res[o.arg]
			r.Acquire(p)
			w.sleep(p, o.d)
			r.Release(w.e)
		case opWait:
			w.sig[o.arg].Wait(p)
		case opFire:
			w.sig[o.arg].Fire(w.e)
		case opPark:
			if w.closed {
				what = "closed"
				break
			}
			w.parked = append(w.parked, p)
			p.Park()
		case opWake:
			w.wakeOne()
		case opJob:
			if w.busy {
				what = "busy"
				break
			}
			w.busy = true
			w.worker.Run(func(q *Proc) {
				w.run(q, o.child)
				w.busy = false
			})
		case opGo:
			w.e.Go(o.label, func(c *Proc) { w.run(c, o.child) })
		}
		w.note(o.label, what)
	}
}

// sleepCount counts the sleeps of a model run, those whose wake-up was
// the next event (the ones Sleep takes without parking) and those whose
// wake-up wrapped below now.
type sleepCount struct{ all, next, wraps int }

func (n *sleepCount) sleep(p *Proc, d time.Duration) {
	e := p.eng
	at := e.now.Add(max(d, 0))
	n.all++
	if len(e.events) == 0 || e.events[0].at > at {
		n.next++
	}
	if at < e.now {
		n.wraps++
	}
	p.Sleep(d)
}

// checkModel runs m with Proc.Sleep and with the parking reference and
// reports the first line where the two logs differ.
func checkModel(t *testing.T, name string, m model, n *sleepCount) int {
	t.Helper()
	got, want := runModel(m, n.sleep), runModel(m, parkSleep)
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			lo := max(i-3, 0)
			t.Fatalf("%s: logs differ at line %d:\nSleep:     %v\nreference: %v",
				name, i, got[lo:min(i+1, len(got))], want[lo:min(i+1, len(want))])
		}
	}
	return len(got)
}

// TestSleepMatchesParkingReference: a Sleep that keeps running leaves
// the clock, the sequence counter and the order of everything after it
// exactly as parking would have, on generated models that tie at every
// turn — zero and one-nanosecond sleeps, timers, resources of capacity 1
// and 2, signals, Park and Wake, a worker idling between jobs, nested
// processes, an engine run twice and sleeps whose wake-up wraps.
func TestSleepMatchesParkingReference(t *testing.T) {
	const seeds = 3000
	var n sleepCount
	lines := 0
	for seed := 0; seed < seeds; seed++ {
		m := genModel(rand.New(rand.NewSource(int64(seed))))
		lines += checkModel(t, fmt.Sprint("seed ", seed), m, &n)
	}
	t.Logf("%d log lines compared; %d of %d sleeps had the next wake-up, %d wrapped", lines, n.next, n.all, n.wraps)
	// Either path under a tenth of the sleeps would leave the other
	// barely tested.
	if n.next*10 < n.all || (n.all-n.next)*10 < n.all {
		t.Fatalf("%d of %d sleeps had the next wake-up: both paths need at least a tenth", n.next, n.all)
	}
	if n.wraps == 0 {
		t.Fatal("no sleep's wake-up wrapped below now")
	}
}

func FuzzSleepMatchesParking(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 9, 1, 0, 1, 5, 2, 4, 7, 0, 0, 31, 1, 2, 12, 16, 0})
	f.Add([]byte("a sleeper whose wake-up is next keeps running"))
	f.Fuzz(func(t *testing.T, b []byte) {
		c := byteChoices(b)
		var n sleepCount
		checkModel(t, fmt.Sprintf("input %x", b), genModel(&c), &n)
	})
}

// BenchmarkSleep is the cost of one Sleep: next is a lone sleeper, whose
// wake-up is always the next event, and tied is two sleepers due at the
// same instants, so that every Sleep parks.
func BenchmarkSleep(b *testing.B) {
	for _, bc := range []struct {
		name  string
		procs int
	}{{"next", 1}, {"tied", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < bc.procs; i++ {
				e.Go("sleeper", func(p *Proc) {
					for j := 0; j < b.N/bc.procs; j++ {
						p.Sleep(time.Microsecond)
					}
				})
			}
			b.ResetTimer()
			e.Run()
		})
	}
}
