package sim

// Worker is a standing process that runs the jobs it is handed one at a
// time and idles between them (Proc.Idle), so a job costs no coroutine,
// goroutine or stack regrowth of its own. severifast.Pool serves every
// call on one; the cluster preps its boots on a few. The process starts
// with the first Run and ends with Close.
type Worker struct {
	eng  *Engine
	name string
	proc *Proc       // nil until the first Run, and again once closed
	job  func(*Proc) // the job to run when next woken
}

// NewWorker returns a worker whose process runs under eng as name.
func NewWorker(eng *Engine, name string) *Worker {
	return &Worker{eng: eng, name: name}
}

// Run hands job to the idle worker. The worker is stepped at the current
// instant, after events already queued for it, as a process started with
// Engine.Go would be, and idles again when job returns.
func (w *Worker) Run(job func(*Proc)) {
	w.job = job
	if w.proc == nil {
		w.eng.Go(w.name, w.serve)
	} else {
		w.eng.Wake(w.proc)
	}
}

// Close ends the idle worker's process once the engine runs it. Closing a
// worker with no process does nothing; a later Run starts a new one.
func (w *Worker) Close() {
	if p := w.proc; p != nil {
		w.proc = nil
		w.eng.Wake(p)
	}
}

// serve is the process body: it runs each job it is woken with, idles
// between them, and returns when woken by Close.
func (w *Worker) serve(p *Proc) {
	w.proc = p
	// A job that panics ends the process: forget it, so that no later
	// Run or Close wakes a process that is gone.
	defer func() {
		if w.proc == p {
			w.proc = nil
		}
	}()
	for w.proc == p {
		job := w.job
		w.job = nil
		job(p)
		p.Idle()
	}
}
