package sim

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// A worker runs the jobs it is handed in order, on one process, each
// starting at the instant it was handed over; Close ends the process and
// a later Run starts a new one under the same name.
func TestWorkerRunsJobsOnOneProcess(t *testing.T) {
	e := NewEngine()
	w := NewWorker(e, "w")
	var procs []*Proc
	var at []Time
	job := func(p *Proc) {
		procs = append(procs, p)
		at = append(at, p.Now())
		p.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		w.Run(job)
		e.Run()
		e.After(time.Millisecond, func() {})
		e.Run()
	}
	for i, p := range procs {
		if p != procs[0] || p.Name() != "w" {
			t.Fatalf("job %d ran on %q (%p), want the worker's one process %p", i, p.Name(), p, procs[0])
		}
		if want := Time(time.Duration(2*i) * time.Millisecond); at[i] != want {
			t.Fatalf("job %d started at %v, want %v", i, at[i], want)
		}
	}
	w.Close()
	e.Run()
	if e.procs != 0 {
		t.Fatalf("%d processes live after Close", e.procs)
	}
	w.Run(job)
	e.Run()
	if procs[3] == procs[0] {
		t.Fatal("Run after Close resumed the ended process")
	}
	w.Close()
	w.Close() // a second Close does nothing
	e.Run()
	NewWorker(e, "never").Close() // nor does closing a worker that never ran
	e.Run()
}

// Handing a job to an idle worker takes the event slot that starting a
// process would: a job handed over after an event was queued for the
// same instant runs after it, one handed over before runs before it.
func TestWorkerRunKeepsStartOrder(t *testing.T) {
	e := NewEngine()
	w := NewWorker(e, "w")
	var order []string
	w.Run(func(*Proc) {})
	e.Run()
	e.At(0, func() { order = append(order, "before") })
	w.Run(func(*Proc) { order = append(order, "job") })
	e.At(0, func() { order = append(order, "after") })
	e.Run()
	if len(order) != 3 || order[0] != "before" || order[1] != "job" || order[2] != "after" {
		t.Fatalf("order = %v, want [before job after]", order)
	}
	w.Close()
	e.Run()
}

// A job that panics ends the worker's process and the panic reaches Run;
// Close afterwards wakes nothing.
func TestWorkerCloseAfterPanickedJob(t *testing.T) {
	e := NewEngine()
	w := NewWorker(e, "w")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a panicking job did not panic Run")
			}
		}()
		w.Run(func(*Proc) { panic("job failed") })
		e.Run()
	}()
	w.Close()
	e.Run()
}

// Queue is FIFO against a plain slice on random pushes and pops, and
// clears every slot it pops.
func TestQueueFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[*int]
	var ref []*int
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) > 0 || len(ref) == 0 {
			v := new(int)
			*v = i
			q.Push(v)
			ref = append(ref, v)
		} else {
			if q.Peek() != ref[0] {
				t.Fatalf("step %d: Peek returned %d, want %d", i, *q.Peek(), *ref[0])
			}
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: Pop returned %d, want %d", i, *got, *ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", i, q.Len(), len(ref))
		}
		for j, v := range q.items[:q.head] {
			if v != nil {
				t.Fatalf("step %d: popped slot %d still holds %d", i, j, *v)
			}
		}
	}
}

// A process that waited in a Resource's queue can be collected once it
// has finished, while the resource lives on.
func TestDequeuedProcessCollectable(t *testing.T) {
	e := NewEngine()
	r := NewResource("r", 1)
	var collected atomic.Bool
	e.Go("holder", func(p *Proc) { r.Use(p, time.Millisecond) })
	e.Go("waiter", func(p *Proc) {
		runtime.SetFinalizer(p, func(*Proc) { collected.Store(true) })
		r.Use(p, time.Millisecond)
	})
	e.Run()
	if r.MaxQueue() != 1 {
		t.Fatalf("max queue %d, want the waiter queued", r.MaxQueue())
	}
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("a finished process is still reachable from the resource it queued on")
	}
	runtime.KeepAlive(r)
}
