package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.After(5*time.Millisecond, func() { fired = e.Now() })
	e.Run()
	if fired != Time(5*time.Millisecond) {
		t.Fatalf("fired at %v, want 5ms", fired)
	}
	if e.Now() != Time(5*time.Millisecond) {
		t.Fatalf("final clock %v, want 5ms", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(time.Second, func() {
		e.At(0, func() { at = e.Now() })
	})
	e.Run()
	if at != Time(time.Second) {
		t.Fatalf("past event fired at %v, want 1s", at)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Go("p", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(10 * time.Millisecond)
		marks = append(marks, p.Now())
		p.Sleep(20 * time.Millisecond)
		marks = append(marks, p.Now())
	})
	e.Run()
	want := []Time{0, Time(10 * time.Millisecond), Time(30 * time.Millisecond)}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcNegativeSleepIsZero(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	e.Run()
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2 * time.Millisecond)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1 * time.Millisecond)
		order = append(order, "b1")
		p.Sleep(2 * time.Millisecond)
		order = append(order, "b3")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Go("boom", func(p *Proc) { panic("boom!") })
	defer func() {
		r := recover()
		if r != "boom!" {
			t.Fatalf("recovered %v, want boom!", r)
		}
	}()
	e.Run()
	t.Fatal("Run returned without panicking")
}

// Use is an unlabeled UseLabeled, the tests' shorthand.
func (r *Resource) Use(p *Proc, d time.Duration) { r.UseLabeled(p, d, "") }

func TestResourceSerializesCapacityOne(t *testing.T) {
	e := NewEngine()
	r := NewResource("psp", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Go("p", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if r.Served() != 3 {
		t.Fatalf("Served = %d, want 3", r.Served())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource("dev", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			r.Use(p, time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO by arrival", order)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEngine()
	r := NewResource("dev", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Go("p", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	// Pairs complete together: 10ms, 10ms, 20ms, 20ms.
	want := []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceBusyTime(t *testing.T) {
	e := NewEngine()
	r := NewResource("dev", 1)
	for i := 0; i < 3; i++ {
		e.Go("p", func(p *Proc) { r.Use(p, 5*time.Millisecond) })
	}
	e.Run()
	if r.BusyTime() != 15*time.Millisecond {
		t.Fatalf("BusyTime = %v, want 15ms", r.BusyTime())
	}
}

func TestResourceMaxQueue(t *testing.T) {
	e := NewEngine()
	r := NewResource("dev", 1)
	for i := 0; i < 4; i++ {
		e.Go("p", func(p *Proc) { r.Use(p, time.Millisecond) })
	}
	e.Run()
	if r.MaxQueue() != 3 {
		t.Fatalf("MaxQueue = %d, want 3", r.MaxQueue())
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource("dev", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	r.Release(e)
}

func TestSignalReleasesAllWaiters(t *testing.T) {
	e := NewEngine()
	s := NewSignal()
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		s.Fire(e)
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != Time(7*time.Millisecond) {
			t.Fatalf("waiter woke at %v, want 7ms", w)
		}
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	e := NewEngine()
	s := NewSignal()
	e.Go("p", func(p *Proc) {
		s.Fire(e)
		before := p.Now()
		s.Wait(p)
		if p.Now() != before {
			t.Error("Wait after Fire advanced time")
		}
	})
	e.Run()
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := NewSignal()
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked run did not panic")
		}
	}()
	e.Run()
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		r := NewResource("psp", 1)
		var finish []Time
		for i := 0; i < 20; i++ {
			d := time.Duration(i%5+1) * time.Millisecond
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				r.Use(p, 2*time.Millisecond)
				finish = append(finish, p.Now())
			})
		}
		e.Run()
		return finish
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeStringAndArithmetic(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Duration() != 1500*time.Millisecond {
		t.Fatalf("Duration = %v", tm.Duration())
	}
	if tm.Sub(Time(500*time.Millisecond)) != time.Second {
		t.Fatalf("Sub wrong")
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String = %q", tm.String())
	}
}

// TestYieldRunsOthersFirst: a zero sleep reschedules the process at the
// current instant, after the events and processes already queued for it.
func TestYieldRunsOthersFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a-before")
		p.Sleep(0)
		order = append(order, "a-after")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	e.Run()
	want := []string{"a-before", "b", "a-after"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineReusableAcrossRuns(t *testing.T) {
	// Hosts boot guests serially by scheduling more work after Run drains
	// (the public API relies on this).
	e := NewEngine()
	var order []int
	e.Go("first", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, 1)
	})
	e.Run()
	e.Go("second", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, 2)
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	// The clock keeps advancing monotonically across runs.
	if e.Now() != Time(2*time.Millisecond) {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestNestedProcessSpawn(t *testing.T) {
	e := NewEngine()
	var done []string
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Engine().Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			done = append(done, "child@"+c.Now().String())
		})
		done = append(done, "parent@"+p.Now().String())
	})
	e.Run()
	if len(done) != 2 || done[0] != "parent@1ms" || done[1] != "child@2ms" {
		t.Fatalf("done = %v", done)
	}
}

// A process switch makes nothing runnable, so it may run under any
// thread-lock state as long as Go and Run see the same one; spawning from
// inside a process inherits it.
func TestRunOnLockedThread(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	e := NewEngine()
	var order []string
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			order = append(order, "child")
		})
		p.Sleep(5 * time.Millisecond)
		order = append(order, "parent")
	})
	e.Run()
	if len(order) != 2 || order[0] != "child" || order[1] != "parent" {
		t.Fatalf("order = %v", order)
	}
}

// A process may block on real synchronisation (an LZ4 split waits for the
// goroutine that parses its second half) without losing its turn.
func TestProcessBlocksOnHostGoroutine(t *testing.T) {
	e := NewEngine()
	got := 0
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < 100; i++ {
			ch := make(chan int)
			go func() { ch <- i }()
			got += <-ch
			p.Sleep(time.Microsecond)
		}
	})
	e.Run()
	if got != 4950 || e.Now() != Time(100*time.Microsecond) {
		t.Fatalf("got %d at %v", got, e.Now())
	}
}

// Sleep, Wake and Signal.Fire schedule the process itself, not a closure
// over it, and the heap holds events by value: once the queue has grown,
// a step allocates nothing. Two sleepers due at the same instants park
// at every Sleep; a lone sleeper's wake-up is always next, so it never
// queues one. Either way, what a run allocates is the engine and its
// processes, a constant.
func TestStepAllocatesOnlyItsEvent(t *testing.T) {
	const sleeps = 1000
	for _, tc := range []struct {
		name  string
		procs int
	}{{"tied", 2}, {"lone", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			parked, queued := 0, 0
			perRun := testing.AllocsPerRun(5, func() {
				e := NewEngine()
				for i := 0; i < tc.procs; i++ {
					e.Go("sleeper", func(p *Proc) {
						for j := 0; j < sleeps; j++ {
							if len(e.events) > 0 {
								queued++
								if e.events[0].at <= e.now.Add(time.Microsecond) {
									parked++
								}
							}
							p.Sleep(time.Microsecond)
						}
					})
				}
				e.Run()
			})
			all := 6 * tc.procs * sleeps // AllocsPerRun runs once more to warm up
			switch {
			case tc.procs == 1 && queued > 0:
				t.Fatalf("a lone sleeper found %d events queued, want none", queued)
			case tc.procs > 1 && parked != all:
				t.Fatalf("%d of %d tied sleeps parked, want all", parked, all)
			}
			perSleep := perRun / float64(tc.procs*sleeps)
			t.Logf("%.0f allocations per run, %.3f per Sleep", perRun, perSleep)
			if perSleep >= 0.05 {
				t.Fatalf("%.3f allocations per Sleep, want none beyond the run's own", perSleep)
			}
		})
	}
}

// idleTracer counts the parked spans the engine reports.
type idleTracer struct{ idle int }

func (*idleTracer) TraceWait(string, string, Time, Time)            {}
func (*idleTracer) TraceService(string, string, string, Time, Time) {}
func (t *idleTracer) TraceIdle(string, Time, Time)                  { t.idle++ }

// An idle process is not live: Run returns while it waits, a Wake and a
// later Run resume it, and it is never reported as a parked span.
func TestIdleProcessOutlivesRun(t *testing.T) {
	e := NewEngine()
	tr := &idleTracer{}
	e.SetTracer(tr)
	var self *Proc
	jobs := 0
	e.Go("server", func(p *Proc) {
		self = p
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			jobs++
			p.Idle()
		}
	})
	for want := 1; want <= 3; want++ {
		if want > 1 {
			e.Wake(self)
		}
		e.Run()
		if jobs != want || e.Now() != Time(time.Duration(want)*time.Millisecond) {
			t.Fatalf("run %d: %d jobs at %v", want, jobs, e.Now())
		}
	}
	e.Wake(self)
	e.Run() // the process returns; nothing is left live
	if e.procs != 0 {
		t.Fatalf("%d processes live after the idle process returned", e.procs)
	}
	if tr.idle != 0 {
		t.Fatalf("%d parked spans traced for an idle process, want 0", tr.idle)
	}
}

// Wake resumes an idle process at the current instant, after the events
// already queued for that instant.
func TestWakeResumesIdleAfterQueuedEvents(t *testing.T) {
	e := NewEngine()
	var self *Proc
	var order []string
	e.Go("server", func(p *Proc) {
		self = p
		p.Idle()
		order = append(order, "server@"+p.Now().String())
	})
	e.Run()
	e.After(time.Millisecond, func() {
		e.At(e.Now(), func() { order = append(order, "queued@"+e.Now().String()) })
		e.Wake(self)
	})
	e.Run()
	if len(order) != 2 || order[0] != "queued@1ms" || order[1] != "server@1ms" {
		t.Fatalf("order = %v, want [queued@1ms server@1ms]", order)
	}
}

// Idle changes nothing for a process parked with Park: with no event
// left that could wake it, Run still reports a deadlock, and its gap is
// still traced.
func TestParkWithEmptyQueueStillPanics(t *testing.T) {
	e := NewEngine()
	tr := &idleTracer{}
	e.SetTracer(tr)
	var self *Proc
	e.Go("parker", func(p *Proc) {
		self = p
		p.Park()
		p.Park()
	})
	e.Go("waker", func(p *Proc) { e.Wake(self) })
	defer func() {
		if recover() == nil {
			t.Fatal("a process parked with Park and nothing to wake it did not panic Run")
		}
		if tr.idle != 1 {
			t.Fatalf("%d parked spans traced, want 1", tr.idle)
		}
	}()
	e.Run()
}
