package sim

import (
	"math"
	"sort"
	"sync/atomic"
)

// fpGolden is the multiplier of the fingerprint hash chain (see fold).
const fpGolden = 0x9e3779b97f4a7c15

// Op log entries of a shard's window execution. Non-negative values index
// the shard's deferred-wake list; the two sentinels mark a local sequence
// allocation and a deferred network send. The op log records, in exact
// program order, every global-sequence allocation an event's execution
// would have performed on the sequential kernel, so the boundary merge can
// replay the allocations in exact global order.
const (
	opLocal int32 = -1 // a seq allocated for a locally scheduled event
	opDefer int32 = -2 // a deferred cross-node send (seq of its arrival)
)

// execRec is one executed event in a shard's window log: its timestamp,
// the (possibly temporary) sequence it was executed under, and how many
// op-log entries its execution appended.
type execRec struct {
	t    Time
	seq  uint64
	nops int32
}

// wakeRec is a deferred cross-shard process wakeup (a Future completion
// landing on a processor owned by another shard, at or beyond the window
// horizon). It materializes as a regular event at the boundary merge.
type wakeRec struct {
	t Time
	p *Proc
}

// matEvent is an event materialized during the boundary merge — a
// deferred send's arrival or a deferred cross-shard wakeup — destined for
// kernel k's regular queue (or lazy tier when lazy is set). Materialized
// events are buffered and pushed only after the pending queues have been
// renumbered: their final sequences lie above the window watermark and
// would otherwise collide with the temporary-sequence range.
type matEvent struct {
	k    *Kernel
	lazy bool
	e    event
}

// shard is the per-kernel sharding state hung off Kernel.sh. All fields
// are accessed only by the shard's own executing goroutine during a
// window, or by the coordinator between windows; the window-boundary
// channel operations order the two.
type shard struct {
	cl  *Cluster
	k   *Kernel
	idx int

	// Window state, valid while window is set: the shard may execute
	// events strictly below horizon. paused is set by next() when the
	// shard's earliest due event lies at or beyond the horizon.
	window  bool
	active  bool
	horizon Time
	paused  bool

	// Window logs: executed events, their op logs, deferred wakes, and
	// the count of deferred sends (for the exact Pending answer in
	// exclusive windows).
	execs   []execRec
	ops     []int32
	wakes   []wakeRec
	opsMark int
	deferN  int
}

// logExec records an executed event in the window log (the window-mode
// body of fold). The previous record's op count is closed off first: ops
// appended since it was logged belong to its execution.
func (sh *shard) logExec(e *event) {
	if n := len(sh.execs); n > 0 {
		sh.execs[n-1].nops = int32(len(sh.ops) - sh.opsMark)
		sh.opsMark = len(sh.ops)
	}
	sh.execs = append(sh.execs, execRec{t: e.t, seq: e.seq})
}

// openWindow arms the shard for one conservative window ending at h.
// Temporary sequences start right above the cluster watermark.
func (sh *shard) openWindow(h Time) {
	sh.window = true
	sh.horizon = h
	sh.paused = false
	sh.k.seq = sh.cl.watermark
	sh.execs = sh.execs[:0]
	sh.ops = sh.ops[:0]
	sh.wakes = sh.wakes[:0]
	sh.opsMark = 0
	sh.deferN = 0
}

// Cluster runs K kernels (shards) under conservative time windows: every
// window, each shard executes its due events strictly below a horizon
// derived from the cluster's link-delay lookahead, and the coordinator
// merges the per-shard execution logs in exact global (t, seq) order at
// the boundary — resolving temporary sequence numbers, folding the
// fingerprint, and replaying deferred cross-node sends. See doc.go,
// "Sharded conservative-parallel execution", for the invariants.
type Cluster struct {
	ks []*Kernel
	la Time // lookahead: window length, a proven lower bound on any deferred arrival delay

	gseq      uint64 // global sequence counter (final sequence numbers)
	watermark uint64 // gseq at the current window's start
	fp        uint64 // global fingerprint chain, folded at merges

	window    bool
	exclusive bool // exactly one shard active this window
	activeIdx int
	curtail   bool // an exclusive-window cross-shard injection ends the window early
	frozen    int  // exclusive windows: pending events on the inactive shards
	pendAtOpn int  // multi windows: total pending at window open

	tempMaps [][]uint64 // per shard: temp index -> final gseq, filled at merge
	mat      []matEvent

	replay func(shard int, gseq uint64) // deferred-send replay hook (the network layer)

	goChs  []chan struct{}
	doneCh chan struct{}

	stopped bool

	// Cooperative cancellation (cancel.go): the flag shared with every
	// shard kernel, checked by the coordinator between windows; canceled
	// is set when it (or any shard's in-window checkpoint) fired.
	cancel   *atomic.Bool
	canceled bool
}

// NewCluster returns shards kernels coordinated under conservative
// windows of length lookahead (µs). Every kernel schedules and runs as
// usual; Run on any of them drives the whole cluster.
func NewCluster(shards int, lookahead Time) *Cluster {
	if shards < 2 {
		panic("sim: NewCluster needs at least 2 shards")
	}
	if !(lookahead > 0) {
		panic("sim: NewCluster needs a positive lookahead")
	}
	cl := &Cluster{la: lookahead}
	cl.ks = make([]*Kernel, shards)
	cl.tempMaps = make([][]uint64, shards)
	for i := range cl.ks {
		k := New()
		k.sh = &shard{cl: cl, k: k, idx: i}
		k.st.own = true // a shard keeps its store for life: it takes none from the stock
		cl.ks[i] = k
	}
	return cl
}

// Kernels returns the shard kernels, indexed by shard.
func (cl *Cluster) Kernels() []*Kernel { return cl.ks }

// Lookahead returns the window length in µs.
func (cl *Cluster) Lookahead() Time { return cl.la }

// SetReplayHook installs the deferred-send replay callback: at each
// boundary merge it is invoked once per deferred send of each shard, in
// exact global execution order, with the final sequence number the
// arrival event must carry. The network layer routes the message there.
func (cl *Cluster) SetReplayHook(fn func(shard int, gseq uint64)) { cl.replay = fn }

// pending answers Kernel.Pending for a clustered kernel. Outside windows
// it is the exact global count. In an exclusive window it is exact too:
// the active shard's local count, the frozen shards' (which cannot
// change except through the cluster's own injections, counted in frozen),
// plus one per deferred send or wake (each materializes exactly one
// event). In a multi-shard window an exact global count would require
// cross-shard synchronization mid-window, so the count at window open is
// reported — necessarily ≥ 2, which keeps quiescence gates (Pending()==0)
// conservatively closed; see the doc.go limitations note.
func (cl *Cluster) pending(k *Kernel) int {
	if !cl.window {
		n := 0
		for _, kk := range cl.ks {
			n += kk.localPending()
		}
		return n
	}
	if cl.exclusive {
		sh := cl.ks[cl.activeIdx].sh
		return cl.ks[cl.activeIdx].localPending() + cl.frozen + sh.deferN + len(sh.wakes)
	}
	return cl.pendAtOpn
}

// crossWake handles a wakeup scheduled from kernel k for a process owned
// by another shard (the only cross-shard interaction the kernel layer
// itself performs; sends go through the network's deferral path).
func (cl *Cluster) crossWake(k *Kernel, t Time, p *Proc) {
	sh := k.sh
	if !cl.window {
		// Direct mode (setup, between windows): allocate a final global
		// sequence and schedule on the owner directly.
		p.k.checkPast(t)
		cl.gseq++
		p.k.sched(event{t: t, seq: cl.gseq, proc: p})
		return
	}
	if t >= sh.horizon {
		// At or beyond the horizon: defer; the boundary merge
		// materializes the wakeup with its final sequence.
		sh.ops = append(sh.ops, int32(len(sh.wakes)))
		sh.wakes = append(sh.wakes, wakeRec{t: t, p: p})
		return
	}
	if cl.exclusive {
		// Below the horizon, but this window is exclusive: the active
		// shard is the only executor, so it may inject directly into the
		// owner's queue using its own temporary-sequence namespace (the
		// only nonempty one, so the boundary renumbering is unambiguous),
		// and curtails the window so the next window re-derives the global
		// minimum and interleaves the injected wakeups exactly.
		p.k.checkPast(t)
		seq := k.allocSeq()
		p.k.sched(event{t: t, seq: seq, proc: p})
		cl.frozen++
		cl.curtail = true
		return
	}
	panic("sim: cross-shard wakeup below the lookahead horizon in a multi-shard window " +
		"(zero-lookahead interaction between shards); run with shards=1")
}

// Run drives the cluster to completion: windows are derived from the
// global minimum due time and the lookahead, executed (inline for an
// exclusive window, on per-shard runner goroutines otherwise), and merged.
// Mirrors Kernel.Run's contract: an error reports processes still blocked
// at the end. On a single-CPU host the shards' runners interleave through
// the scheduler.
func (cl *Cluster) Run() error {
	for !cl.stopped {
		if cl.cancel != nil && cl.cancel.Load() {
			// Between-window checkpoint. stopped is set too so a canceled
			// cluster can never pass the quiescence check and be captured.
			cl.canceled = true
			cl.stopped = true
			break
		}
		t0 := math.Inf(1)
		for _, k := range cl.ks {
			if t, ok := k.minDue(); ok && t < t0 {
				t0 = t
			}
		}
		if math.IsInf(t0, 1) {
			break
		}
		h := t0 + cl.la
		cl.watermark = cl.gseq
		cl.curtail = false
		nAct, act := 0, -1
		for i, k := range cl.ks {
			k.sh.active = false
			if t, ok := k.minDue(); ok && t < h {
				k.sh.active = true
				nAct++
				act = i
			}
		}
		cl.exclusive = nAct == 1
		cl.activeIdx = act
		if cl.exclusive {
			cl.frozen = 0
			for i, k := range cl.ks {
				if i != act {
					cl.frozen += k.localPending()
				}
			}
			k := cl.ks[act]
			k.sh.openWindow(h)
			cl.window = true
			k.loop(nil)
		} else {
			cl.pendAtOpn = 0
			for _, k := range cl.ks {
				cl.pendAtOpn += k.localPending()
			}
			cl.ensureRunners()
			cl.window = true
			n := 0
			for i, k := range cl.ks {
				if k.sh.active {
					k.sh.openWindow(h)
					cl.goChs[i] <- struct{}{}
					n++
				}
			}
			for j := 0; j < n; j++ {
				<-cl.doneCh
			}
		}
		cl.window = false
		for _, k := range cl.ks {
			if k.stopped {
				cl.stopped = true
			}
			if k.canceled {
				cl.canceled = true
			}
		}
		cl.merge()
		for _, k := range cl.ks {
			k.sh.window = false
		}
	}
	return cl.finish()
}

// ensureRunners starts the persistent per-shard runner goroutines (lazily:
// an all-exclusive run never needs them). finish closes them down.
func (cl *Cluster) ensureRunners() {
	if cl.goChs != nil {
		return
	}
	cl.goChs = make([]chan struct{}, len(cl.ks))
	cl.doneCh = make(chan struct{}, len(cl.ks))
	for i := range cl.ks {
		cl.goChs[i] = make(chan struct{})
		go func(i int) {
			for range cl.goChs[i] {
				cl.ks[i].loop(nil)
				cl.doneCh <- struct{}{}
			}
		}(i)
	}
}

// merge is the boundary step: walk the per-shard execution logs in exact
// global (t, resolved seq) order, fold the fingerprint, assign final
// sequences to every temporary in allocation order, replay deferred sends
// and materialize deferred wakeups, then renumber the pending queues and
// push the materialized events.
func (cl *Cluster) merge() {
	for _, k := range cl.ks {
		sh := k.sh
		if n := len(sh.execs); n > 0 {
			sh.execs[n-1].nops = int32(len(sh.ops) - sh.opsMark)
			sh.opsMark = len(sh.ops)
		}
	}
	watermark := cl.watermark
	resolve := func(si int, s uint64) uint64 {
		if s <= watermark {
			return s
		}
		ti := s - watermark - 1
		mp := cl.tempMaps[si]
		if ti >= uint64(len(mp)) {
			panic("sim: unresolved temporary sequence at window merge")
		}
		return mp[ti]
	}
	cursors := make([]int, len(cl.ks)) // next exec per shard; op cursor is implicit
	opCur := make([]int, len(cl.ks))
	for {
		best := -1
		var bt Time
		var bs uint64
		for i, k := range cl.ks {
			sh := k.sh
			if cursors[i] >= len(sh.execs) {
				continue
			}
			er := &sh.execs[cursors[i]]
			rs := resolve(i, er.seq)
			if best < 0 || er.t < bt || (er.t == bt && rs < bs) {
				best, bt, bs = i, er.t, rs
			}
		}
		if best < 0 {
			break
		}
		cl.fp = cl.fp*fpGolden + (math.Float64bits(bt) ^ bs)
		sh := cl.ks[best].sh
		er := &sh.execs[cursors[best]]
		cursors[best]++
		for j := int32(0); j < er.nops; j++ {
			op := sh.ops[opCur[best]]
			opCur[best]++
			cl.gseq++
			switch {
			case op == opLocal:
				cl.tempMaps[best] = append(cl.tempMaps[best], cl.gseq)
			case op == opDefer:
				cl.replay(best, cl.gseq)
			default:
				w := sh.wakes[op]
				cl.mat = append(cl.mat, matEvent{k: w.p.k, e: event{t: w.t, seq: cl.gseq, proc: w.p}})
			}
		}
	}
	// Renumber queued temporaries. In an exclusive window the active
	// shard's temporaries may sit in any shard's queue (direct
	// injection); its map is the only nonempty one, so applying it
	// everywhere is unambiguous. In a multi-shard window each shard's
	// queues hold only its own temporaries.
	for i, k := range cl.ks {
		mp := cl.tempMaps[i]
		if cl.exclusive {
			mp = cl.tempMaps[cl.activeIdx]
		}
		if len(mp) == 0 {
			continue
		}
		k.remapSeqs(func(s uint64) uint64 {
			if s <= watermark {
				return s
			}
			ti := s - watermark - 1
			if ti >= uint64(len(mp)) {
				panic("sim: unresolved queued temporary sequence at window merge")
			}
			return mp[ti]
		})
	}
	for _, me := range cl.mat {
		switch {
		case me.lazy:
			me.k.lazyq.push(me.e)
		case me.k.useHeap:
			me.k.hq.push(me.e)
		default:
			me.k.lq.push(me.e)
		}
	}
	cl.mat = cl.mat[:0]
	for i := range cl.tempMaps {
		cl.tempMaps[i] = cl.tempMaps[i][:0]
	}
	// Clear every shard's window log — openWindow only resets shards that
	// are active in the NEXT window, and a stale log would be re-merged.
	for _, k := range cl.ks {
		sh := k.sh
		sh.execs = sh.execs[:0]
		sh.ops = sh.ops[:0]
		sh.wakes = sh.wakes[:0]
		sh.opsMark = 0
		sh.deferN = 0
	}
}

// finish mirrors the tail of Kernel.Run across all shards: clocks join at
// the global end time, stats and the fingerprint aggregate into shard 0
// (the kernel the embedding layer exposes), runners shut down, and
// still-blocked processes come back as one DeadlockError.
func (cl *Cluster) finish() error {
	end := Time(0)
	for _, k := range cl.ks {
		if k.now > end {
			end = k.now
		}
	}
	k0 := cl.ks[0]
	for _, k := range cl.ks {
		k.now = end
		k.foldSwitches()
		if k != k0 {
			k0.Stat.Events += k.Stat.Events
			k0.Stat.FusedDeliveries += k.Stat.FusedDeliveries
			k0.Stat.FusedBusyRecv += k.Stat.FusedBusyRecv
			k0.Stat.TwoStageDeliveries += k.Stat.TwoStageDeliveries
			k.Stat = Stats{}
		}
	}
	k0.fp = cl.fp
	if cl.goChs != nil {
		for _, ch := range cl.goChs {
			close(ch)
		}
		cl.goChs = nil
	}
	if cl.canceled {
		cl.shutdown()
		return &CanceledError{At: end, Events: k0.Stat.Events}
	}
	var blocked []string
	for _, k := range cl.ks {
		blocked = k.blocked(blocked)
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		cl.shutdown()
		return &DeadlockError{Blocked: blocked, At: end}
	}
	return nil
}

// shutdown force-terminates processes on every shard (Kernel.Shutdown on
// a clustered kernel).
func (cl *Cluster) shutdown() {
	for _, k := range cl.ks {
		k.killAll()
	}
}
