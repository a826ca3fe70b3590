package core

import (
	"context"
	"sync/atomic"
)

// ArmCancel ties the machine's run to ctx: when ctx is canceled (or its
// deadline passes), a cooperative cancellation flag is raised and the run
// stops at the kernel's next checkpoint, returning an error that unwraps to
// sim.ErrCanceled. The checkpoint is a counter increment per event plus one
// atomic load every 1024th — and nothing at all on machines that never
// arm — so arming is safe on hot paths.
//
// Cancellation leaves no partial observable state: every live process is
// killed, the machine is permanently stopped (it can never pass the
// quiescence check, so it cannot be snapshotted), and any snapshot taken
// before the run — including the one this machine may have been forked
// from — remains valid and replays identically.
//
// The returned release function detaches the watcher from ctx; call it
// once the run has returned so a later ctx cancellation cannot touch the
// flag (the flag itself stays installed but is only ever read by this
// machine's kernel).
func (m *Machine) ArmCancel(ctx context.Context) (release func()) {
	flag := new(atomic.Bool)
	if ctx.Err() != nil {
		// An already-done ctx (expired deadline) must cancel
		// deterministically before the first event; AfterFunc alone would
		// fire on its own goroutine and could lose the race with a short
		// run.
		flag.Store(true)
	}
	m.K.SetCancel(flag)
	stop := context.AfterFunc(ctx, func() { flag.Store(true) })
	return func() { stop() }
}

// RunContext is Run bound to ctx via ArmCancel: the SPMD program runs to
// completion unless ctx is canceled first, in which case the error unwraps
// to sim.ErrCanceled and carries the progress diagnostics
// (*sim.CanceledError).
func (m *Machine) RunContext(ctx context.Context, program func(p *Proc)) error {
	defer m.ArmCancel(ctx)()
	return m.Run(program)
}
