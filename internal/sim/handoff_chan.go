//go:build !go1.23

package sim

// handoff transfers control between the engine and one process over a
// pair of unbuffered channels — the same rendezvous as handoff.go's
// coroutine, for toolchains that predate package iter.
type handoff struct {
	resume chan struct{} // engine -> process: run
	yield  chan struct{} // process -> engine: parked or done
}

// start creates the process; body runs on the first step.
func (h *handoff) start(body func()) {
	h.resume, h.yield = make(chan struct{}), make(chan struct{})
	go func() {
		<-h.resume
		defer func() { h.yield <- struct{}{} }()
		body()
	}()
}

// step runs the process until it parks or finishes. It must only be
// called from engine context (inside an event callback).
func (h *handoff) step() {
	h.resume <- struct{}{}
	<-h.yield
}

// park suspends the process until the next step. It must only be called
// from process context.
func (h *handoff) park() {
	h.yield <- struct{}{}
	<-h.resume
}
