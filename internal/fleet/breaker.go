package fleet

import (
	"time"

	"github.com/severifast/severifast/internal/sim"
)

// BreakerPolicy configures the orchestrator's key-broker circuit breaker.
// The breaker watches transport-level broker failures (not denials: a
// denial is a verdict from a live broker) and, once Threshold consecutive
// failures accumulate, stops attempting exchanges entirely — boots fail
// fast with a breaker refusal instead of each burning its full retry
// budget against a dead dependency. After Cooldown of virtual time one
// probe exchange is allowed through; its outcome decides whether the
// breaker closes again or re-opens for another cool-down.
type BreakerPolicy struct {
	// Threshold is the consecutive transport-failure count that opens the
	// breaker. Zero or negative disables the breaker.
	Threshold int
	// Cooldown is the virtual-time span the breaker stays open before
	// admitting a half-open probe.
	Cooldown time.Duration
}

// breakerState is the classic three-state circuit-breaker machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is the orchestrator's breaker instance. Like the rest of the
// orchestrator's mutable state it is touched only by simulation processes
// of one engine, so it needs no locking; determinism follows from the
// engine's total event order.
type breaker struct {
	pol BreakerPolicy
	met *Metrics

	state    breakerState
	failures int      // consecutive transport failures while closed
	openedAt sim.Time // when the breaker last opened
	probing  bool     // a half-open probe exchange is in flight
}

func newBreaker(pol BreakerPolicy, met *Metrics) *breaker {
	if pol.Threshold <= 0 {
		return nil
	}
	return &breaker{pol: pol, met: met}
}

// allow reports whether an exchange may be attempted at now. While open it
// refuses until the cool-down elapses, then admits exactly one half-open
// probe; further exchanges are refused until the probe resolves.
func (b *breaker) allow(now sim.Time) bool {
	switch b.state {
	case breakerOpen:
		if now.Sub(b.openedAt) < b.pol.Cooldown {
			return false
		}
		b.transition(breakerHalfOpen)
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// success records a broker response (a grant or a genuine denial — either
// proves the broker is alive). A successful half-open probe closes the
// breaker.
func (b *breaker) success() {
	b.probing = false
	b.failures = 0
	if b.state != breakerClosed {
		b.transition(breakerClosed)
	}
}

// failure records a transport failure at now. Threshold consecutive
// failures open the breaker; a failed half-open probe re-opens it for
// another cool-down.
func (b *breaker) failure(now sim.Time) {
	b.probing = false
	switch b.state {
	case breakerClosed:
		b.failures++
		if b.failures >= b.pol.Threshold {
			b.openedAt = now
			b.transition(breakerOpen)
		}
	case breakerHalfOpen:
		b.openedAt = now
		b.transition(breakerOpen)
	}
}

func (b *breaker) transition(to breakerState) {
	b.state = to
	b.met.breakerTransition(to.String())
}
