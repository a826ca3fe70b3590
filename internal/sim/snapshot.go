package sim

import (
	"fmt"

	"diva/internal/wire"
)

// This file implements kernel state capture for machine
// snapshot/fork (core.Machine.Snapshot). A kernel's processes run on
// coroutines, whose stacks cannot be copied, so capture is only legal at
// quiescence: no pending events and no live processes. At that point the
// kernel's entire observable state is the clock, the sequence counter, the
// fingerprint chain and the stat counters — the queue holds at most dead
// entries of canceled timers, which never execute, and the payload slot
// table holds only recycled slots and theirs (slot indices never influence
// event order, so a fork starting with a fresh table is indistinguishable).

// KernelState is a quiescent kernel's captured state.
type KernelState struct {
	Now  Time
	Seq  uint64
	FP   uint64
	Stat Stats
}

// Append appends the state to b.
func (st KernelState) Append(b []byte) []byte {
	b = wire.AppendFloat64(b, st.Now)
	b = wire.AppendUvarint(b, st.Seq)
	b = wire.AppendUint64(b, st.FP)
	b = wire.AppendUvarint(b, st.Stat.Events)
	b = wire.AppendUvarint(b, st.Stat.FusedDeliveries)
	return wire.AppendUvarint(b, st.Stat.FusedBusyRecv)
}

// ReadKernelState reads a KernelState that Append wrote.
func ReadKernelState(r *wire.Reader) KernelState {
	return KernelState{Now: r.Float64(), Seq: r.Uvarint(), FP: r.Uint64(),
		Stat: Stats{Events: r.Uvarint(), FusedDeliveries: r.Uvarint(), FusedBusyRecv: r.Uvarint()}}
}

// SnapshotState captures the kernel's state. It fails unless the kernel is
// quiescent: events still pending make the capture meaningless.
func (k *Kernel) SnapshotState() (KernelState, error) {
	if err := k.checkQuiescent(); err != nil {
		return KernelState{}, err
	}
	return KernelState{Now: k.now, Seq: k.seq, FP: k.fp, Stat: k.Stat}, nil
}

// RestoreState overwrites the kernel's clock, sequence counter, fingerprint
// and stats with a captured state. The kernel must be fresh (quiescent, no
// processes ever spawned); events scheduled afterwards continue the
// original's (t, seq) numbering exactly.
func (k *Kernel) RestoreState(st KernelState) error {
	if err := k.checkQuiescent(); err != nil {
		return err
	}
	if len(k.procs) > 0 {
		return fmt.Errorf("sim: RestoreState on a kernel with processes")
	}
	k.now, k.seq, k.fp, k.Stat = st.Now, st.Seq, st.FP, st.Stat
	return nil
}

// checkQuiescent reports why the kernel cannot be captured, or nil.
func (k *Kernel) checkQuiescent() error {
	if k.canceled {
		return fmt.Errorf("sim: kernel was canceled")
	}
	if n := k.Pending(); n > 0 {
		return fmt.Errorf("sim: %d events still pending", n)
	}
	for _, p := range k.procs {
		if !p.done {
			return fmt.Errorf("sim: process %s still live", p.Name())
		}
	}
	return nil
}

// Done reports whether the process has finished (its body returned or it
// was force-terminated). Safe to read once Run has returned.
func (p *Proc) Done() bool { return p.done }
