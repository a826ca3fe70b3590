package mesh

import "diva/internal/sim"

// This file is the network's side of the sharded conservative-parallel
// kernel (sim/cluster.go). The link array and the global send counters
// are shared, non-commutative state: two shards routing
// concurrently would both race and change the charge order, so inside a
// window every cross-node send is deferred — logged in the sending
// shard's op log and replayed by the cluster coordinator at the boundary
// merge, in exact global (t, seq) execution order, with the final
// sequence number its arrival event carries. The window lookahead is (at
// least) StartupSendUS + HopLatencyUS, which lower-bounds every deferred
// arrival delay, so a replayed arrival always lands at or beyond the
// horizon — never amid events its shard already executed. Node-local
// deliveries touch no shared state and stay inline, charged to per-shard
// stat counters.

// shardSendStats are the per-shard send counters for in-window node-local
// deliveries (the only sends charged outside the coordinator's
// single-threaded contexts). SendStats sums them into the global arrays.
type shardSendStats struct {
	msgs  [256]uint64
	bytes [256]uint64
}

// deferredSend is one in-window cross-node send awaiting boundary replay.
type deferredSend struct {
	m      *Msg
	depart sim.Time
}

// Shard attaches the network to a kernel cluster: shardOf maps each node
// to its shard, and the cluster's deferred-send replay hook is pointed at
// this network. Must be called before any message is sent.
func (nw *Network) Shard(cl *sim.Cluster, shardOf []int) {
	ks := cl.Kernels()
	if len(shardOf) != len(nw.cpuFree) {
		panic("mesh: shard map does not cover the topology")
	}
	nw.kernels = ks
	nw.shardOf = shardOf
	nw.poolSh = make([]msgPool, len(ks))
	nw.statSh = make([]shardSendStats, len(ks))
	nw.defSh = make([][]deferredSend, len(ks))
	nw.defCur = make([]int, len(ks))
	cl.SetReplayHook(nw.replayDeferred)
}

// kOf returns the kernel owning node: the shard's kernel when clustered,
// the network's single kernel otherwise. Every Now() read and event
// scheduled for a node must go through its owner.
func (nw *Network) kOf(node int) *sim.Kernel {
	if nw.kernels == nil {
		return nw.K
	}
	return nw.kernels[nw.shardOf[node]]
}

// replayDeferred is the cluster's replay hook: called at a boundary merge
// once per deferred send of shard si, in exact global execution order —
// the order the op log was appended in, which makes the cursor
// correspondence exact: the i-th opDefer of a shard's log is the i-th
// entry of its deferral list. All shards are parked, so charging the
// shared link state and scheduling on the destination shard are safe, and
// the charge order equals the sequential kernel's bit for bit.
func (nw *Network) replayDeferred(si int, gseq uint64) {
	d := nw.defSh[si][nw.defCur[si]]
	nw.defCur[si]++
	if nw.defCur[si] == len(nw.defSh[si]) {
		nw.defSh[si] = nw.defSh[si][:0]
		nw.defCur[si] = 0
	}
	m := d.m
	nw.sendMsgs[m.Kind]++
	nw.sendBytes[m.Kind] += uint64(m.Size)
	arrive, delivered := nw.routeRawEx(m.Src, m.Dst, m.Size, d.depart)
	if !delivered {
		// Reactive-mode drop at the failure point: no arrival event is
		// injected and the pre-allocated gseq stays consumed — exactly
		// what the sequential kernel does with SkipSeq on its drop path.
		if m.pooled {
			nw.releaseMsg(m)
		}
		return
	}
	kd := nw.kOf(m.Dst)
	if nw.twoStage {
		kd.Stat.TwoStageDeliveries++
		kd.InjectCallAt(arrive, gseq, false, nw.arriveFn, m)
		return
	}
	kd.Stat.FusedDeliveries++
	kd.InjectCallAt(arrive, gseq, true, nw.arriveFn, m)
}

// acquireMsgFor returns a pooled message from the free list of src's
// shard (the executing shard: sends always run on the sender's owner).
func (nw *Network) acquireMsgFor(src int) *Msg {
	if nw.shardOf == nil {
		return nw.pool.get()
	}
	return nw.poolSh[nw.shardOf[src]].get()
}
