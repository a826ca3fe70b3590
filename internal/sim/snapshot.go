package sim

import "fmt"

// This file implements kernel and cluster state capture for machine
// snapshot/fork (core.Machine.Snapshot). A kernel's processes are
// goroutines, whose stacks cannot be copied, so capture is only legal at
// quiescence: no pending events on any tier and no live processes. At that
// point the kernel's entire observable state is the clock, the sequence
// counter, the fingerprint chain and the stat counters — the queues are
// empty and the payload slot table holds only recycled slots (slot indices
// never influence event order, so a fork starting with a fresh table is
// indistinguishable).

// KernelState is a quiescent kernel's captured state.
type KernelState struct {
	Now  Time
	Seq  uint64
	FP   uint64
	Stat Stats
}

// SnapshotState captures the kernel's state. It fails unless the kernel is
// quiescent: events still pending (or a clustered kernel — use the
// Cluster's SnapshotState) make the capture meaningless.
func (k *Kernel) SnapshotState() (KernelState, error) {
	if k.sh != nil {
		return KernelState{}, fmt.Errorf("sim: SnapshotState on a clustered kernel; snapshot the cluster")
	}
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
	if k.stopped {
		return fmt.Errorf("sim: kernel was stopped")
	}
	if n := k.localPending(); n > 0 {
		return fmt.Errorf("sim: %d events still pending", n)
	}
	for _, p := range k.procs {
		if !p.done {
			return fmt.Errorf("sim: process %s still live", p.Name())
		}
	}
	return nil
}

// ClusterState is a quiescent cluster's captured state: the global sequence
// counter and fingerprint plus every shard kernel's state. After a run the
// per-shard stats are already aggregated into shard 0 and the cluster
// fingerprint mirrored there (finish), so the per-kernel capture preserves
// that layout exactly.
type ClusterState struct {
	GSeq    uint64
	FP      uint64
	Kernels []KernelState
}

// SnapshotState captures the cluster's state; all shards must be quiescent.
func (cl *Cluster) SnapshotState() (ClusterState, error) {
	if cl.stopped {
		return ClusterState{}, fmt.Errorf("sim: cluster was stopped")
	}
	if cl.window {
		return ClusterState{}, fmt.Errorf("sim: cluster inside a window")
	}
	st := ClusterState{GSeq: cl.gseq, FP: cl.fp, Kernels: make([]KernelState, len(cl.ks))}
	for i, k := range cl.ks {
		if err := k.checkQuiescent(); err != nil {
			return ClusterState{}, fmt.Errorf("shard %d: %w", i, err)
		}
		st.Kernels[i] = KernelState{Now: k.now, Seq: k.seq, FP: k.fp, Stat: k.Stat}
	}
	return st, nil
}

// RestoreState overwrites a fresh cluster's counters and shard kernels with
// a captured state. The shard count must match the capture's.
func (cl *Cluster) RestoreState(st ClusterState) error {
	if len(st.Kernels) != len(cl.ks) {
		return fmt.Errorf("sim: cluster has %d shards, snapshot has %d", len(cl.ks), len(st.Kernels))
	}
	for i, k := range cl.ks {
		if err := k.checkQuiescent(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if len(k.procs) > 0 {
			return fmt.Errorf("sim: shard %d already has processes", i)
		}
		ks := st.Kernels[i]
		k.now, k.seq, k.fp, k.Stat = ks.Now, ks.Seq, ks.FP, ks.Stat
	}
	cl.gseq, cl.fp = st.GSeq, st.FP
	return nil
}

// Done reports whether the process has finished (its body returned or it
// was force-terminated). Safe to read once Run has returned.
func (p *Proc) Done() bool { return p.done }
