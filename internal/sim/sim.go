// Package sim implements a deterministic discrete-event simulation kernel.
//
// The SEVeriFast reproduction separates *what happens* from *how long it
// takes*: data transformations (hashing, encryption, decompression, memory
// writes) are executed for real on real bytes, while durations are charged
// against a virtual clock owned by an Engine. The engine advances time by
// dispatching events in (time, sequence) order, so a run is reproducible
// bit-for-bit regardless of host scheduling.
//
// Model code is written as straight-line process functions (see Engine.Go)
// that sleep on the virtual clock and queue on shared resources. Exactly one
// process runs at a time; the engine and the running process hand control
// back and forth as coroutines (see handoff), unless the process's own
// wake-up is next (see Proc.Sleep), so there is no data race between
// processes even though they share model state.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It deliberately mirrors time.Duration's resolution so cost
// models can be written with time.Duration literals.
type Time int64

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback, or — the common case, so it costs no
// closure — a process to step.
type event struct {
	at   Time
	seq  uint64
	fire func()
	proc *Proc // stepped when fire is nil
}

// eventHeap is a binary min-heap of events by (at, seq), held by value so
// scheduling an event allocates nothing once the queue has grown. seq is
// unique, so the order is total and any correct heap pops the same
// sequence.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q
	return ev
}

// Tracer observes scheduler-level intervals: resource queue waits,
// resource service periods, and parked (not-runnable) gaps. The engine
// holds at most one tracer; internal/telemetry's Registry implements
// this interface, keeping the dependency one-way (telemetry imports
// sim, never the reverse).
type Tracer interface {
	// TraceWait is called after a process waited for a resource slot.
	TraceWait(proc, resource string, from, to Time)
	// TraceService is called after a process held a resource slot via
	// UseLabeled; label is the command name ("" when unlabeled).
	TraceService(proc, resource, label string, from, to Time)
	// TraceIdle is called after a Park/Wake gap.
	TraceIdle(proc string, from, to Time)
}

// Engine owns the virtual clock and the event queue.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap

	procs int // live (started, unfinished, not idle) processes

	tracer Tracer // optional scheduler observer

	panicked interface{} // first panic captured from a process
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTracer installs t as the engine's scheduler observer (nil clears
// it). Call before Run; the tracer sees waits, service periods, and
// park gaps as they complete.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// At schedules fn to run at virtual time t. Scheduling in the past (or at
// the present instant) fires the event at the current time, after already-
// queued events for that time.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fire: fn})
}

// stepAt schedules p to run at virtual time t, which is never in the past.
func (e *Engine) stepAt(t Time, p *Proc) {
	e.seq++
	e.events.push(event{at: t, seq: e.seq, proc: p})
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Run dispatches events until the queue is empty. It panics if a process
// panicked, propagating the original panic value, or if processes remain
// parked with no event that could ever wake them (a deadlock in the model).
// An idle process (Proc.Idle) is not one: Run returns with it still
// parked, and a later Wake and Run resume it.
func (e *Engine) Run() {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		if ev.fire != nil {
			ev.fire()
		} else {
			ev.proc.step()
			if ev.proc.done {
				// The coroutine refers back to its process: drop it, so
				// that a finished process is a leaf and whatever still
				// holds one pins no coroutine.
				ev.proc.handoff = handoff{}
			}
		}
		if e.panicked != nil {
			panic(e.panicked)
		}
	}
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) parked with an empty event queue", e.procs))
	}
}

// Proc is the handle a process function uses to interact with virtual time.
// A Proc is only valid inside the process function it was passed to.
type Proc struct {
	eng  *Engine
	name string
	handoff
	done bool
}

// Name returns the process name given to Engine.Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Go starts fn as a simulation process at the current virtual time.
//
// The process body runs on its own goroutine but never concurrently with
// the engine or with any other process: control transfers are strict
// rendezvous. fn may freely read and write model state shared with other
// processes.
func (e *Engine) Go(name string, fn func(p *Proc)) {
	p := &Proc{eng: e, name: name}
	e.procs++
	p.start(func() {
		defer func() {
			if r := recover(); r != nil {
				if e.panicked == nil {
					e.panicked = r
				}
			}
			p.done = true
			e.procs--
		}()
		fn(p)
	})
	// First activation happens via the event queue so that processes
	// started at the same instant run in start order.
	e.stepAt(e.now, p)
}

// Sleep advances the process by d of virtual time. Negative durations are
// treated as zero.
//
// A sleeper whose wake-up would be the next event dispatched keeps
// running. Parking queues its wake-up at (at, seq+1); that event pops next
// exactly when no queued event is due at or before at — an event already
// queued for at has a lower seq and runs first, so the test is strict. Run
// would then pop it at once, move the clock forward to at (never back: a
// huge d wraps at below now, and the clock stays) and step the process
// again, with nothing run in between. Sleep does the same without the
// switch: it takes the seq number the event would have taken, so every
// later (time, seq) key, and with it the dispatch order, is the one the
// parked path gives.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	at := e.now.Add(d)
	if len(e.events) == 0 || e.events[0].at > at {
		e.seq++
		if at > e.now {
			e.now = at
		}
		return
	}
	e.stepAt(at, p)
	p.park()
}

// Wait parks the process until wake is called (from engine or another
// process's context via an event). It returns the virtual time at wakeup.
func (p *Proc) waitParked() Time {
	p.park()
	return p.eng.now
}

// Park suspends the process until another process (or an event callback)
// wakes it with Engine.Wake. It returns the virtual time at wakeup. Park
// and Wake are the building blocks for schedulers layered on top of the
// engine (see internal/fleet's worker pool): the parking process must
// arrange for some other live process to hold a reference to it, or the
// engine will report a deadlock.
func (p *Proc) Park() Time {
	from := p.eng.now
	at := p.waitParked()
	if t := p.eng.tracer; t != nil {
		t.TraceIdle(p.name, from, at)
	}
	return at
}

// Idle parks the process like Park, as a process with nothing to do: Run
// returns while it waits instead of reporting a deadlock, and no parked
// span is traced. A standing server process idles between the jobs it is
// woken for (see Worker); the caller that holds it resumes it with Wake.
// A process parked with Park, Signal.Wait or Resource.Acquire still counts
// as live.
func (p *Proc) Idle() {
	p.eng.procs--
	p.park()
	p.eng.procs++
}

// Wake schedules a process parked via Park or Idle to resume at the current
// instant, after already-queued events for this time. Waking a process
// that is not parked corrupts the engine-process rendezvous; callers must
// track parked processes themselves (remove p from their wait list before
// calling Wake, and never wake the same parked process twice).
func (e *Engine) Wake(p *Proc) { e.stepAt(e.now, p) }

// Signal is a one-shot broadcast synchronization point: processes Wait on
// it; Fire releases all current and future waiters.
type Signal struct {
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fire releases all waiters at the current virtual time. Firing twice is a
// no-op.
func (s *Signal) Fire(e *Engine) {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		e.stepAt(e.now, w)
	}
	s.waiters = nil
}

// Wait blocks p until the signal fires. If it already fired, Wait returns
// immediately without yielding.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.waitParked()
}
