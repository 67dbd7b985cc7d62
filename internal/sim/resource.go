package sim

import "time"

// Resource is a FIFO server with a fixed number of service slots. It models
// contended hardware: the SEVeriFast reproduction uses a capacity-1 Resource
// for the Platform Security Processor, which serializes launch commands
// across all concurrently booting guests (the paper's Fig. 12 bottleneck).
type Resource struct {
	name     string
	capacity int
	inUse    int
	queue    Queue[*Proc]

	// Accounting, for experiments that want utilization numbers.
	busy      time.Duration // total slot-busy time accumulated
	lastStamp Time
	served    uint64
	maxQueue  int
}

// NewResource returns a resource with the given number of service slots.
// Capacity must be at least 1.
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{name: name, capacity: capacity}
}

// Rename changes the resource's name. Multi-host models rename otherwise
// identical resources ("psp" → "psp-h3") so tracer output and telemetry
// tracks stay per-instance. Rename before the first Acquire; renaming a
// resource with recorded history splits its trace across two tracks.
func (r *Resource) Rename(name string) { r.name = name }

// QueueLen returns the number of processes currently waiting for a slot —
// an instantaneous congestion signal (contrast MaxQueue, the high-water
// mark). Cluster schedulers read it as a per-host pressure input.
func (r *Resource) QueueLen() int { return r.queue.Len() }

// Served returns the number of completed service periods.
func (r *Resource) Served() uint64 { return r.served }

// MaxQueue returns the maximum number of processes ever waiting.
func (r *Resource) MaxQueue() int { return r.maxQueue }

// BusyTime returns total accumulated slot-busy virtual time.
func (r *Resource) BusyTime() time.Duration { return r.busy }

// Acquire blocks p until a slot is free, in FIFO order. The caller must
// pair it with Release.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.queue.Len() == 0 {
		r.take(p.eng)
		return
	}
	r.queue.Push(p)
	if r.queue.Len() > r.maxQueue {
		r.maxQueue = r.queue.Len()
	}
	from := p.eng.now
	p.waitParked()
	// Woken by Release, which already accounted the slot to us.
	if t := p.eng.tracer; t != nil {
		t.TraceWait(p.name, r.name, from, p.eng.now)
	}
}

// account folds slot-busy time accumulated since the last state change into
// the busy integral. Call before every change to inUse.
func (r *Resource) account(e *Engine) {
	r.busy += time.Duration(r.inUse) * e.now.Sub(r.lastStamp)
	r.lastStamp = e.now
}

func (r *Resource) take(e *Engine) {
	r.account(e)
	r.inUse++
}

// Release frees a slot and hands it to the longest-waiting process, if any.
func (r *Resource) Release(e *Engine) {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	r.account(e)
	r.inUse--
	r.served++
	if r.queue.Len() > 0 && r.inUse < r.capacity {
		next := r.queue.Pop()
		r.take(e)
		e.stepAt(e.now, next)
	}
}

// UseLabeled acquires a slot, holds it for d of virtual time, and
// releases it — the "submit one command to the device" pattern — with a
// command label for the scheduler tracer: the service period is reported
// under that name on the resource's track (PSP launch commands use this,
// so a trace shows LAUNCH_UPDATE_DATA serialization explicitly).
func (r *Resource) UseLabeled(p *Proc, d time.Duration, label string) {
	r.Acquire(p)
	from := p.eng.now
	p.Sleep(d)
	r.Release(p.eng)
	if t := p.eng.tracer; t != nil {
		t.TraceService(p.name, r.name, label, from, p.eng.now)
	}
}
