package sim

import (
	"errors"
	"fmt"
)

// ErrCanceled is the sentinel a canceled run unwraps to. A run is canceled
// cooperatively: an external party sets the flag installed by SetCancel
// and the kernel notices it at the next checkpoint (every cancelCheckEvery
// executed events). errors.Is(err, ErrCanceled) identifies a canceled run; the
// concrete *CanceledError carries the progress diagnostics.
var ErrCanceled = errors.New("sim: run canceled")

// CanceledError reports a run stopped at a cancellation checkpoint: the
// simulated time it had reached and the number of events it had executed.
// Cancellation leaves no partial observable state behind — the machine is
// stopped (never quiescent, so it cannot be snapshotted) and every live
// process has been killed; any snapshot taken before the run remains
// valid and forks from it replay identically.
type CanceledError struct {
	At     Time
	Events uint64
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled at t=%v after %d events", e.At, e.Events)
}

// Unwrap makes errors.Is(err, ErrCanceled) hold.
func (e *CanceledError) Unwrap() error { return ErrCanceled }

// cancelCheckEvery is the cancellation polling period in executed events.
// A power of two: the checkpoint is one counter increment and mask per
// event plus an atomic load every 1024th, and nothing at all when no flag
// is installed — the benchmark gate pins that the unset path costs nothing
// measurable.
const cancelCheckEvery = 1024

// SetCancel installs flag as the kernel's cooperative cancellation
// checkpoint; a nil flag uninstalls it. Once flag.Load() reports true the
// run stops at the next checkpoint and Run returns a *CanceledError.
// Install before Run or between runs. An *atomic.Bool may be set from any
// goroutine at any time; any other flag is polled on the goroutine that
// runs the events, so it may read the kernel — a test's event budget
// compares Stat.Events.
func (k *Kernel) SetCancel(flag interface{ Load() bool }) { k.cancel = flag }

// cancelRequested reports whether a cancellation flag is installed and set.
func (k *Kernel) cancelRequested() bool {
	return k.cancel != nil && k.cancel.Load()
}

// checkCancel is the per-event checkpoint: called once per executed event
// from the loop, it polls the flag every cancelCheckEvery events and marks
// the kernel canceled+stopped when it is set. Returns true when the loop
// must stop.
func (k *Kernel) checkCancel() bool {
	k.cancelCtr++
	if k.cancelCtr&(cancelCheckEvery-1) != 0 {
		return false
	}
	if !k.cancel.Load() {
		return false
	}
	k.canceled = true
	k.stopped = true
	return true
}
