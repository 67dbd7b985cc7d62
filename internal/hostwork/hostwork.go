// Package hostwork provides a bounded worker pool for host-time work:
// the expected-digest tool's component and region hashes, a snapshot
// export's page encryption, the two kernels a generator builds, and a
// large LZ4 parse. No launch hands it work: LAUNCH_UPDATE_DATA hashes
// each region in place, one command at a time. It parallelizes *host*
// work only and never touches the virtual clock: the simulation engine
// remains single-threaded, and every user of this package must produce
// results that are independent of worker count and scheduling
// (index-addressed outputs folded in a deterministic serial pass). See
// DESIGN.md §9 for the determinism argument.
//
// The LZ4 compressor's parse of a large input may use two workers too
// (internal/lz4): its two indices, unlike everyone else's, are not
// independent. Index 0 waits for index 1, but only while index 1 is
// running, never for one no worker has picked up, so the pair cannot
// deadlock; and the output is exactly the one-pass parse's whichever way
// the pool schedules them, because index 0 takes over index 1's sequences
// only from a point after which the two parses provably agree.
//
// Workers are persistent: the first parallel Do spawns pool goroutines
// (up to GOMAXPROCS) that live for the process and sleep on a job
// channel between calls. A fleet booting thousands of VMs thus pays
// goroutine startup once, not once per job, and concurrent
// Do calls from different OS threads share one pool instead of
// oversubscribing the machine with transient goroutines. The caller
// always participates in its own job, so Do makes progress even when
// every pool worker is busy with someone else's work — which also makes
// nested Do calls deadlock-free.
package hostwork

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the requested pool width. 0 means "GOMAXPROCS at call time".
var workers atomic.Int32

// jobs feeds the persistent workers. One job may be sent many times —
// each receive enlists one worker into that job's cursor loop. The
// channel is unbuffered on purpose: a send must rendezvous with a
// worker parked in receive, so a successful non-blocking send proves a
// live worker took the job. (A buffered send can park a job nobody is
// committed to receiving — the caller would then block forever in
// wg.Wait with the job stranded in the buffer.)
var jobs = make(chan *job)

// spawned counts live pool goroutines, capped at GOMAXPROCS.
var spawned atomic.Int32

// SetWorkers overrides the pool width; n <= 0 restores the GOMAXPROCS
// default. Returns the previous override. Tests use it to prove results
// are identical at every width, including 1. The override bounds how
// many participants a Do call enlists; already-spawned pool goroutines
// stay parked, they are not killed.
func SetWorkers(n int) int {
	return int(workers.Swap(int32(n)))
}

// Workers reports the effective pool width.
func Workers() int {
	if n := int(workers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// job is one Do call: an atomic cursor over [0, n) that any number of
// participants (the caller plus enlisted pool workers) drain together.
type job struct {
	fn     func(int)
	n      int
	cursor atomic.Int64
	wg     sync.WaitGroup
}

// run drains the cursor until the index space is exhausted. Safe for
// any number of concurrent participants; late joiners that find the
// cursor spent return immediately.
func (j *job) run() {
	for {
		i := int(j.cursor.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.fn(i)
	}
}

// worker is one persistent pool goroutine: sleep on the channel, drain
// the received job, signal completion, repeat for the process lifetime.
func worker() {
	for j := range jobs {
		j.run()
		j.wg.Done()
	}
}

// enlist tries to hand j to one pool worker: first an idle one (the
// rendezvous send succeeds only against a worker parked in receive),
// else a freshly spawned one if the pool is below GOMAXPROCS. Reports
// whether a worker was enlisted; false means the pool is saturated and
// the caller should stop recruiting.
func enlist(j *job) bool {
	j.wg.Add(1)
	select {
	case jobs <- j:
		return true
	default:
	}
	if spawned.Add(1) <= int32(runtime.GOMAXPROCS(0)) {
		go worker()
		jobs <- j
		return true
	}
	spawned.Add(-1)
	j.wg.Done()
	return false
}

// Do runs fn(0), ..., fn(n-1) across the pool and returns when all calls
// have finished. Calls are distributed by an atomic cursor, so fn must
// not care which worker runs which index or in what order. With one
// worker (or n <= 1) everything runs inline on the caller's goroutine —
// the serial reference the parallel path is tested against.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &job{fn: fn, n: n}
	for h := 0; h < w-1; h++ {
		if !enlist(j) {
			break
		}
	}
	j.run()
	j.wg.Wait()
}
