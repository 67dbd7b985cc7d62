//go:build go1.23

package sim

import "iter"

// handoff transfers control between the engine and one process. The
// process is a coroutine: step and park switch goroutines directly, on
// the calling thread, without making anything runnable. An unbuffered
// channel pair gives the same rendezvous, but each send readies a
// goroutine, which wakes an idle P's thread to look for it — some 30 k
// futex wake-ups in a 4096-boot cluster run, a quarter of its wall time at
// GOMAXPROCS 2 and the part of it that varies most from run to run.
//
// The runtime requires the goroutine that steps a coroutine to hold the
// same thread lock (runtime.LockOSThread) as the one that created it:
// call Engine.Go and Engine.Run under one lock state. A process inherits
// the state of whoever steps it, so spawning from a process is always fine.
// An idle process (Proc.Idle) outlives the Run that started it and is
// stepped again by a later one, so the rule spans every Run that may
// resume it: a severifast.Pool's Boot, Prewarm and Close calls must all
// be made under one lock state.
type handoff struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// start creates the process; body runs on the first step.
func (h *handoff) start(body func()) {
	h.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		h.yield = yield
		body()
	})
}

// step runs the process until it parks or finishes. It must only be
// called from engine context (inside an event callback).
func (h *handoff) step() { h.next() }

// park suspends the process until the next step. It must only be called
// from process context.
func (h *handoff) park() { h.yield(struct{}{}) }
