package sim

import (
	"iter"
	"sync"
)

// worker is a coroutine (iter.Pull: a goroutine and its stack, switched to
// and from without the scheduler) that runs one process body after another.
// Only the goroutine driving a kernel (the caller of Run) resumes it.
type worker struct {
	p     *Proc // the process it runs; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// run is the coroutine: one body per resumption until a kill unwinds it
// (exec false) or stop drops it from the pool (yield false).
func (w *worker) run(yield func(struct{}) bool) {
	w.yield = yield
	for w.exec() && yield(struct{}{}) {
	}
}

// exec runs the bound process to its end and unbinds it. A kill's unwinding
// stops here and reports false; any other panic goes on — through iter.Pull
// to the goroutine that resumed the worker, so it leaves Run.
func (w *worker) exec() (ok bool) {
	p := w.p
	defer func() {
		p.done, p.w, w.p = true, nil, nil
		if !ok {
			if r := recover(); r != nil && r != (killed{}) {
				panic(r)
			}
		}
	}()
	p.body(p)
	return true
}

// maxIdleWorkers caps the process-wide stock of idle workers: two machines
// of the largest figure mesh (32×32). A worker finishing beyond it exits.
const maxIdleWorkers = 2048

// procPool is the stock of idle workers and the counters of ProcStats.
var procPool struct {
	mu                     sync.Mutex
	idle                   []*worker
	hits, misses, switches uint64
}

// PoolStats describes the process runtime: idle workers in the stock and
// its cap, first wake-ups served from it and by a new worker (Misses counts
// the workers ever created), process switches of the runs that returned.
type PoolStats struct {
	Idle, Cap              int
	Hits, Misses, Switches uint64
}

// ProcStats returns the worker stock's current state and counters.
func ProcStats() PoolStats {
	procPool.mu.Lock()
	defer procPool.mu.Unlock()
	return PoolStats{Idle: len(procPool.idle), Cap: maxIdleWorkers,
		Hits: procPool.hits, Misses: procPool.misses, Switches: procPool.switches}
}

// DropIdleWorkers ends every worker in the stock: what a draining service
// calls last, so that no goroutine of the simulator outlives its runs.
func DropIdleWorkers() {
	procPool.mu.Lock()
	idle := procPool.idle
	procPool.idle = nil
	procPool.mu.Unlock()
	for _, w := range idle {
		w.stop()
	}
}

// bind gives p the most recently idled worker, or a new one.
func bind(p *Proc) *worker {
	var w *worker
	procPool.mu.Lock()
	if n := len(procPool.idle) - 1; n >= 0 {
		w, procPool.idle[n] = procPool.idle[n], nil
		procPool.idle = procPool.idle[:n]
		procPool.hits++
	} else {
		procPool.misses++
	}
	procPool.mu.Unlock()
	if w == nil {
		w = new(worker)
		w.next, w.stop = iter.Pull(w.run)
	}
	w.p, p.w = p, w
	return w
}

// shelve stocks a worker whose body returned; past the cap it exits instead.
func (w *worker) shelve() {
	procPool.mu.Lock()
	full := len(procPool.idle) >= maxIdleWorkers
	if !full {
		procPool.idle = append(procPool.idle, w)
	}
	procPool.mu.Unlock()
	if full {
		w.stop()
	}
}
