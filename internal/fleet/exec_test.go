package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
)

// spawnExec is the hand-off execTimer replaced, kept as its reference: a
// process per served request that sleeps Exec and then ends the request.
func spawnExec(o *Orchestrator) func(*request, *kvm.Machine) {
	return func(r *request, m *kvm.Machine) {
		o.eng.Go(fmt.Sprintf("%s-exec-%d", o.cfg.Name, r.id), func(p *sim.Proc) {
			p.Sleep(r.Exec)
			o.execEnded(r, m)
		})
	}
}

// execArrival is one request of a schedule: submitted at at, by tenant,
// running exec once its guest is up.
type execArrival struct {
	at     time.Duration
	tenant string
	exec   time.Duration
}

// execEvent is one step a schedule's run took: request id submitted, its
// boot done, or the request ended, at virtual time at.
type execEvent struct {
	kind string
	id   int
	at   sim.Time
}

// runExecSchedule submits the schedule, sorted by arrival, to a fresh
// fleet of workers — with the process-per-exec hand-off when ref is set.
// Then a closed-loop client submits rounds requests one after another,
// each as soon as the function of the one before has run for loopExec
// after its boot: its arrival lands on that request's end. It returns
// every submission, boot conclusion and request end in the order they
// happened, with the fleet's metrics.
func runExecSchedule(t *testing.T, workers int, sched []execArrival, rounds int, loopExec time.Duration, ref bool) ([]execEvent, *Metrics) {
	t.Helper()
	eng, o, img := testFleet(t, Config{Workers: workers})
	if ref {
		o.startExec = spawnExec(o)
	}
	var events []execEvent
	submit := func(p *sim.Proc, id int, tenant string, exec time.Duration, booted *sim.Signal) {
		events = append(events, execEvent{"submit", id, p.Now()})
		if err := o.Submit(p, Request{Tenant: tenant, Image: img, Exec: exec,
			Done: func(p *sim.Proc, _ Tier, err error) {
				if err != nil {
					t.Error(err)
				}
				events = append(events, execEvent{"done", id, p.Now()})
				booted.Fire(eng)
			},
			Ended: func() { events = append(events, execEvent{"ended", id, eng.Now()}) },
		}); err != nil {
			t.Error(err)
		}
	}
	eng.Go("arrivals", func(p *sim.Proc) {
		for i, a := range sched {
			p.Sleep(a.at - p.Now().Duration())
			submit(p, i, a.tenant, a.exec, sim.NewSignal())
		}
		for k := 0; k < rounds; k++ {
			booted := sim.NewSignal()
			submit(p, len(sched)+k, "t1", loopExec, booted)
			booted.Wait(p)
			p.Sleep(loopExec)
		}
		o.Close()
	})
	eng.Run()
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	return events, o.Metrics()
}

// TestExecTimerMatchesProcessReference: on randomized schedules that force
// same-instant ties — requests with equal Exec, requests whose functions
// end together, arrivals at the instant functions end — the timer
// hand-off ends requests in the same order, at the same instants, with
// the same fleet metrics as the process-per-exec reference.
func TestExecTimerMatchesProcessReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(3)
		// Arrivals on a coarse grid, several at one instant.
		var sched []execArrival
		for i := 0; i < 8; i++ {
			sched = append(sched, execArrival{
				at:     time.Duration(i/3) * 20 * time.Millisecond,
				tenant: fmt.Sprintf("t%d", rng.Intn(2)),
			})
		}
		// A worker is free when its boot is done, so Exec moves no boot
		// conclusion: learn them once, then pick Exec values against them.
		probe, _ := runExecSchedule(t, workers, sched, 0, 0, true)
		done := make([]sim.Time, len(sched))
		var last sim.Time
		for _, e := range probe {
			if e.kind == "done" {
				done[e.id] = e.at
				last = max(last, e.at)
			}
		}
		base := last.Duration() + time.Millisecond
		together := 2*last + sim.Time(time.Millisecond)
		for i := range sched {
			k := rng.Intn(3)
			if i < 2 { // at least one request of each kind that has an Exec
				k = i + 1
			}
			switch k {
			case 0: // no function: the request ends on the worker
			case 1: // equal Exec
				sched[i].exec = base
			case 2: // ends at the instant the other such requests end
				sched[i].exec = together.Sub(done[i])
			}
		}
		// Arrivals at instants functions end, after every boot above is
		// done so that none of them moves.
		sched = append(sched,
			execArrival{at: done[0].Duration() + base, tenant: "t1"},
			execArrival{at: together.Duration(), tenant: "t0", exec: base},
			execArrival{at: together.Duration(), tenant: "t1", exec: base})

		rounds, loopExec := 2+rng.Intn(3), base
		want, wantMet := runExecSchedule(t, workers, sched, rounds, loopExec, true)
		got, gotMet := runExecSchedule(t, workers, sched, rounds, loopExec, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: timer hand-off ran\n%v\nreference ran\n%v", seed, got, want)
		}
		if !reflect.DeepEqual(gotMet, wantMet) {
			t.Fatalf("seed %d: timer hand-off metrics %+v, reference %+v", seed, gotMet, wantMet)
		}
		// The schedule did force ties: some instant saw both an arrival
		// and a request end.
		ended := map[sim.Time]bool{}
		for _, e := range got {
			if e.kind == "ended" {
				ended[e.at] = true
			}
		}
		tie := false
		for _, e := range got {
			tie = tie || e.kind == "submit" && ended[e.at]
		}
		if !tie {
			t.Fatalf("seed %d: no arrival landed on a request's end", seed)
		}
	}
}

// TestServedRequestCollectable: once a request is served and ended, the
// orchestrator that queued it keeps nothing of it.
func TestServedRequestCollectable(t *testing.T) {
	eng, o, img := testFleet(t, Config{Workers: 1})
	var collected atomic.Bool
	eng.Go("submit", func(p *sim.Proc) {
		if err := o.Submit(p, Request{Tenant: "t0", Image: img, Exec: time.Millisecond}); err != nil {
			t.Error(err)
		}
		runtime.SetFinalizer(o.queues["t0"].Peek(), func(*request) { collected.Store(true) })
		o.Close()
	})
	eng.Run()
	if o.Metrics().TotalBoots() != 1 {
		t.Fatalf("%d boots served, want 1", o.Metrics().TotalBoots())
	}
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("a served request is still reachable from its orchestrator")
	}
	runtime.KeepAlive(o)
}
