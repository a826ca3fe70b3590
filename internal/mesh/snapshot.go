package mesh

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"diva/internal/sim"
	"diva/internal/xrand"
)

// This file captures and restores a Network's mutable simulated state for
// machine snapshot/fork. The capture is only legal at kernel quiescence —
// no messages in flight, no processes blocked in Recv — which the machine
// layer verifies before calling in here; the network-level checks below
// are the defensive remainder (inbox waiters, an open inline journal).
//
// Deliberately NOT captured, because a fork starting fresh is provably
// indistinguishable: the Msg free lists (recycled messages are zeroed on
// acquire, their identity never observable), the route memo (a pure
// function of the topology: a fork's network is created on the very Routes
// of its source, publish-once and safe to share, see routes.go).

// NetworkState is a deep copy of a Network's mutable simulated state: the
// value a fork restores from and, its fields being exported, the value
// encoding/gob writes into a snapshot file (diva/snapstore) — one
// representation for both. It is immutable after capture; any number of
// forks can restore from one. Message payloads are shared by reference
// (immutable by the library-wide contract) and cross the gob boundary as
// interface values of types their defining packages register.
type NetworkState struct {
	// Per directed link: the busy-until clock and the accumulated load.
	LinkBusy  []sim.Time
	LinkMsgs  []uint64
	LinkBytes []uint64
	CPUFree   []sim.Time
	ComputeUS []float64
	SendMsgs  [256]uint64
	SendBytes [256]uint64
	Inboxes   []InboxState

	// Fault engine position: the schedule cursor. The schedule itself is
	// part of the machine configuration (replayed at fork construction),
	// so the position fully determines link state — restore re-applies
	// the schedule prefix.
	FaultCursor int
	// The fault counters of the schedule and the reactive transport.
	FaultStats FaultStats

	// Reactive transport state (nil for oracle-mode captures): per-node
	// jitter-RNG positions, channel sequence counters, receiver dedup
	// state and suspect sets. No outstanding transmissions or timers exist
	// at quiescence (a live record always holds a pending timer, which
	// blocks the capture).
	React *ReactState
}

// ReactState is the reactive transport's captured state.
type ReactState struct {
	Nodes []ReactNodeState
}

// ReactNodeState is one node's transport state in canonical form —
// parallel key/value slices, keys ascending — so captures of identical
// runs are identical.
type ReactNodeState struct {
	RNG       xrand.State
	SendDst   []int
	SendSeq   []uint32
	RecvSrc   []int
	RecvFloor []uint32
	RecvSeen  [][]uint32
	SuspDst   []int
	SuspAt    []sim.Time
}

// InboxState is one node's queued inbox messages, per tag in ascending tag
// order, each tag's queue in FIFO order. Msg values are copied; of a Msg
// only the exported fields reach a snapshot file, which is all a delivered
// message still needs.
type InboxState struct {
	Tags   []int
	Queues [][]Msg
}

// SnapshotState captures the network's state. It fails when state that
// cannot be captured is live: processes blocked in Recv or an open inline
// journal.
func (nw *Network) SnapshotState() (*NetworkState, error) {
	if nw.ilj.active {
		return nil, fmt.Errorf("mesh: inline journal open")
	}
	st := &NetworkState{
		LinkBusy:  make([]sim.Time, len(nw.links)),
		LinkMsgs:  make([]uint64, len(nw.links)),
		LinkBytes: make([]uint64, len(nw.links)),
		CPUFree:   append([]sim.Time(nil), nw.cpuFree...),
		ComputeUS: append([]float64(nil), nw.computeUS...),
		SendMsgs:  nw.sendMsgs,
		SendBytes: nw.sendBytes,
		Inboxes:   make([]InboxState, len(nw.inbox.nodes)),
	}
	for i := range nw.links {
		l := &nw.links[i]
		st.LinkBusy[i], st.LinkMsgs[i], st.LinkBytes[i] = l.busyUntil, l.load.Msgs, l.load.Bytes
	}
	if nw.faults != nil {
		st.FaultCursor = nw.faults.cursor
	}
	if nw.stats != nil {
		st.FaultStats = *nw.stats
	}
	if r := nw.react; r != nil {
		if r.live > 0 {
			// Unreachable at quiescence: every record holds a pending
			// timer, which keeps the kernel busy. Defensive.
			return nil, fmt.Errorf("mesh: %d transmissions outstanding", r.live)
		}
		st.React = r.capture()
	}
	for n := range nw.inbox.nodes {
		ib := &nw.inbox.nodes[n]
		if ib.rx != nil {
			return nil, fmt.Errorf("mesh: node %d has a process blocked in Recv(tag=%d)", n, ib.rx.tag)
		}
		is := &st.Inboxes[n]
		var msgs []Msg
		if ib.q != nil {
			msgs = ib.q.msgs
		}
		for i := range msgs {
			is.Tags = append(is.Tags, msgs[i].Tag)
		}
		slices.Sort(is.Tags)
		is.Tags = slices.Compact(is.Tags)
		is.Queues = make([][]Msg, len(is.Tags))
		for i, tag := range is.Tags {
			for j := range msgs {
				if msgs[j].Tag == tag {
					is.Queues[i] = append(is.Queues[i], msgs[j])
				}
			}
		}
	}
	return st, nil
}

// CheckState validates a state against this network's shape: every count
// RestoreState relies on, so a state that passes restores without error on
// any network of the same configuration. States captured live pass by
// construction; the check is for states decoded from a snapshot file.
func (nw *Network) CheckState(st *NetworkState) error {
	if len(st.LinkBusy) != len(nw.links) || len(st.LinkMsgs) != len(nw.links) || len(st.LinkBytes) != len(nw.links) {
		return fmt.Errorf("mesh: snapshot has %d/%d/%d link clocks/message counts/byte counts, network has %d links",
			len(st.LinkBusy), len(st.LinkMsgs), len(st.LinkBytes), len(nw.links))
	}
	if n := len(nw.cpuFree); len(st.CPUFree) != n || len(st.ComputeUS) != n || len(st.Inboxes) != n {
		return fmt.Errorf("mesh: snapshot has %d/%d/%d node clocks/compute totals/inboxes, network has %d nodes",
			len(st.CPUFree), len(st.ComputeUS), len(st.Inboxes), n)
	}
	for n := range st.Inboxes {
		if err := st.Inboxes[n].check(n, len(st.Inboxes)); err != nil {
			return fmt.Errorf("mesh: snapshot inbox %d: %w", n, err)
		}
	}
	switch {
	case nw.faults == nil && st.FaultCursor != 0:
		return fmt.Errorf("mesh: snapshot is mid fault schedule but the network has none installed")
	case nw.faults != nil && (st.FaultCursor < 0 || st.FaultCursor > len(nw.faults.sched)):
		return fmt.Errorf("mesh: snapshot is at entry %d of a %d-entry fault schedule", st.FaultCursor, len(nw.faults.sched))
	case nw.stats == nil && st.FaultStats != (FaultStats{}):
		return fmt.Errorf("mesh: snapshot has fault counters but the network has neither a fault schedule nor reactive mode")
	}
	if (st.React != nil) != (nw.react != nil) {
		return fmt.Errorf("mesh: snapshot and network disagree on reactive mode")
	}
	if rc := st.React; rc != nil {
		if len(rc.Nodes) != len(nw.react.rngs) {
			return fmt.Errorf("mesh: snapshot has reactive state for %d nodes, network has %d", len(rc.Nodes), len(nw.react.rngs))
		}
		for i := range rc.Nodes {
			if err := rc.Nodes[i].check(i, len(rc.Nodes)); err != nil {
				return fmt.Errorf("mesh: snapshot reactive node %d: %w", i, err)
			}
		}
	}
	return nil
}

// RestoreState overwrites a freshly constructed network's state with a
// captured one. The topology (link and node counts) must match.
func (nw *Network) RestoreState(st *NetworkState) error {
	if err := nw.CheckState(st); err != nil {
		return err
	}
	if nw.faults != nil {
		nw.faults.resetTo(st.FaultCursor)
	}
	if nw.stats != nil {
		*nw.stats = st.FaultStats
	}
	if rc := st.React; rc != nil {
		nw.react.restore(rc)
	}
	for i := range nw.links {
		nw.links[i] = link{busyUntil: st.LinkBusy[i], load: LinkLoad{Msgs: st.LinkMsgs[i], Bytes: st.LinkBytes[i]}}
	}
	copy(nw.cpuFree, st.CPUFree)
	copy(nw.computeUS, st.ComputeUS)
	nw.sendMsgs = st.SendMsgs
	nw.sendBytes = st.SendBytes
	for n := range st.Inboxes {
		for _, q := range st.Inboxes[n].Queues {
			iq := nw.inbox.queue(n)
			iq.msgs = append(iq.msgs, q...)
		}
	}
	return nil
}

// check validates one node's captured inbox on an n-node network: one
// queue per tag, tags strictly ascending, no empty queue, and every queued
// message a KindInbox message to this node, under its queue's tag, from a
// node of the network.
func (is *InboxState) check(node, n int) error {
	if len(is.Tags) != len(is.Queues) {
		return fmt.Errorf("%d tags but %d queues", len(is.Tags), len(is.Queues))
	}
	for i, tag := range is.Tags {
		if i > 0 && tag <= is.Tags[i-1] {
			return fmt.Errorf("tags not strictly ascending at tag %d", tag)
		}
		if len(is.Queues[i]) == 0 {
			return fmt.Errorf("empty queue for tag %d", tag)
		}
		for j := range is.Queues[i] {
			m := &is.Queues[i][j]
			switch {
			case m.Kind != KindInbox:
				return fmt.Errorf("tag %d message %d has kind %d", tag, j, m.Kind)
			case m.Dst != node:
				return fmt.Errorf("tag %d message %d is addressed to node %d", tag, j, m.Dst)
			case m.Src < 0 || m.Src >= n:
				return fmt.Errorf("tag %d message %d comes from node %d", tag, j, m.Src)
			case m.Tag != tag:
				return fmt.Errorf("tag %d message %d carries tag %d", tag, j, m.Tag)
			}
		}
	}
	return nil
}

// capture returns the transport's channel table and node streams in the
// canonical form of ReactState: channels in (src, dst) order, so each
// node's keys come out ascending. Outstanding records are not captured.
func (r *reactState) capture() *ReactState {
	rc := &ReactState{Nodes: make([]ReactNodeState, len(r.rngs))}
	for i := range r.rngs {
		rc.Nodes[i].RNG = r.rngs[i].State()
	}
	order := make([]int32, len(r.chans))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ca, cb := &r.chans[a], &r.chans[b]
		return cmp.Or(cmp.Compare(ca.src, cb.src), cmp.Compare(ca.dst, cb.dst))
	})
	for _, ci := range order {
		c := &r.chans[ci]
		s, d := &rc.Nodes[c.src], &rc.Nodes[c.dst]
		if c.has&chanSend != 0 {
			s.SendDst = append(s.SendDst, int(c.dst))
			s.SendSeq = append(s.SendSeq, c.sendSeq)
		}
		if c.has&chanRecv != 0 {
			var seen []uint32
			if len(c.seen) > 0 {
				seen = slices.Clone(c.seen)
			}
			d.RecvSrc = append(d.RecvSrc, int(c.src))
			d.RecvFloor = append(d.RecvFloor, c.floor)
			d.RecvSeen = append(d.RecvSeen, seen)
		}
		if c.has&chanSusp != 0 {
			s.SuspDst = append(s.SuspDst, int(c.dst))
			s.SuspAt = append(s.SuspAt, c.suspAt)
		}
	}
	return rc
}

// restore replaces the channel table and node streams with a checked
// captured state; nothing may be outstanding.
func (r *reactState) restore(rc *ReactState) {
	clear(r.chanIdx)
	r.chans = r.chans[:0]
	for i := range rc.Nodes {
		nc := &rc.Nodes[i]
		r.rngs[i].SetState(nc.RNG)
		for j, d := range nc.SendDst {
			c := r.at(i, d)
			c.sendSeq = nc.SendSeq[j]
			c.has |= chanSend
		}
		for j, s := range nc.RecvSrc {
			c := r.at(s, i)
			c.floor = nc.RecvFloor[j]
			c.seen = append(c.seen[:0], nc.RecvSeen[j]...)
			c.has |= chanRecv
		}
		for j, d := range nc.SuspDst {
			r.at(i, d).suspect(nc.SuspAt[j])
		}
	}
}

// check validates one node's captured transport state on an n-node
// network: parallel slices of equal length, keys that name another node
// in strictly ascending order, dedup sets strictly ascending above their
// floor, and suspect times that are finite and not negative.
func (nc *ReactNodeState) check(node, n int) error {
	if len(nc.SendDst) != len(nc.SendSeq) ||
		len(nc.RecvSrc) != len(nc.RecvFloor) || len(nc.RecvSrc) != len(nc.RecvSeen) ||
		len(nc.SuspDst) != len(nc.SuspAt) {
		return fmt.Errorf("mismatched key/value slices")
	}
	for _, keys := range []struct {
		name string
		ks   []int
	}{{"send", nc.SendDst}, {"receive", nc.RecvSrc}, {"suspect", nc.SuspDst}} {
		for j, k := range keys.ks {
			if k < 0 || k >= n || k == node {
				return fmt.Errorf("%s channel names node %d", keys.name, k)
			}
			if j > 0 && k <= keys.ks[j-1] {
				return fmt.Errorf("%s channels not strictly ascending at node %d", keys.name, k)
			}
		}
	}
	for j, seen := range nc.RecvSeen {
		for q, sq := range seen {
			if sq <= nc.RecvFloor[j] || (q > 0 && sq <= seen[q-1]) {
				return fmt.Errorf("receive channel from %d: sequence %d seen out of order or at or below floor %d", nc.RecvSrc[j], sq, nc.RecvFloor[j])
			}
		}
	}
	for j, at := range nc.SuspAt {
		if !(at >= 0) || math.IsInf(at, 1) {
			return fmt.Errorf("suspect channel to %d: time %g", nc.SuspDst[j], at)
		}
	}
	return nil
}
