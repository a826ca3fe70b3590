package mesh

import (
	"fmt"
	"sort"

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

	// Fault engine position: the schedule cursor plus counters. The
	// schedule itself is part of the machine configuration (replayed at
	// fork construction), so the position fully determines link state —
	// restore re-applies the schedule prefix.
	FaultCursor int
	FaultStats  FaultStats

	// Reactive transport state (nil for oracle-mode captures): per-node
	// jitter-RNG positions, channel sequence counters, receiver dedup
	// state and suspect sets, plus the folded transport counters. No
	// outstanding transmissions or timers exist at quiescence (a live
	// record always holds a pending timer, which blocks the capture).
	React *ReactState
}

// ReactState is the reactive transport's captured state.
type ReactState struct {
	Stats FaultStats // folded per-node counters plus any restored baseline
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
		Inboxes:   make([]InboxState, len(nw.inboxes)),
	}
	for i := range nw.links {
		l := &nw.links[i]
		st.LinkBusy[i], st.LinkMsgs[i], st.LinkBytes[i] = l.busyUntil, l.load.Msgs, l.load.Bytes
	}
	if nw.faults != nil {
		st.FaultCursor = nw.faults.cursor
		st.FaultStats = nw.faults.stats
	}
	if r := nw.react; r != nil {
		rc := &ReactState{Stats: r.base, Nodes: make([]ReactNodeState, len(r.nodes))}
		for i := range r.nodes {
			n := &r.nodes[i]
			if len(n.out) > 0 {
				// Unreachable at quiescence: every record holds a pending
				// timer, which keeps the kernel busy. Defensive.
				return nil, fmt.Errorf("mesh: node %d has %d outstanding transmissions", i, len(n.out))
			}
			rc.Stats = rc.Stats.add(n.stats)
			nc := &rc.Nodes[i]
			nc.RNG = n.rng.State()
			nc.SendDst = make([]int, 0, len(n.nextSend))
			for d := range n.nextSend {
				nc.SendDst = append(nc.SendDst, d)
			}
			sort.Ints(nc.SendDst)
			nc.SendSeq = make([]uint32, len(nc.SendDst))
			for j, d := range nc.SendDst {
				nc.SendSeq[j] = n.nextSend[d]
			}
			nc.RecvSrc = make([]int, 0, len(n.recv))
			for s := range n.recv {
				nc.RecvSrc = append(nc.RecvSrc, s)
			}
			sort.Ints(nc.RecvSrc)
			nc.RecvFloor = make([]uint32, len(nc.RecvSrc))
			nc.RecvSeen = make([][]uint32, len(nc.RecvSrc))
			for j, s := range nc.RecvSrc {
				ch := n.recv[s]
				nc.RecvFloor[j] = ch.floor
				for sq := range ch.seen {
					nc.RecvSeen[j] = append(nc.RecvSeen[j], sq)
				}
				sort.Slice(nc.RecvSeen[j], func(a, b int) bool { return nc.RecvSeen[j][a] < nc.RecvSeen[j][b] })
			}
			nc.SuspDst = make([]int, 0, len(n.suspect))
			for d := range n.suspect {
				nc.SuspDst = append(nc.SuspDst, d)
			}
			sort.Ints(nc.SuspDst)
			nc.SuspAt = make([]sim.Time, len(nc.SuspDst))
			for j, d := range nc.SuspDst {
				nc.SuspAt[j] = n.suspect[d]
			}
		}
		st.React = rc
	}
	for n := range nw.inboxes {
		ib := &nw.inboxes[n]
		for tag, ws := range ib.waiters {
			if len(ws) > 0 {
				return nil, fmt.Errorf("mesh: node %d has a process blocked in Recv(tag=%d)", n, tag)
			}
		}
		is := &st.Inboxes[n]
		for tag, q := range ib.queues {
			if len(q) > 0 {
				is.Tags = append(is.Tags, tag)
			}
		}
		sort.Ints(is.Tags)
		is.Queues = make([][]Msg, len(is.Tags))
		for i, tag := range is.Tags {
			q := make([]Msg, len(ib.queues[tag]))
			for j, m := range ib.queues[tag] {
				q[j] = *m
				q[j].pooled = false // inbox messages are never recycled
			}
			is.Queues[i] = q
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
		if is := &st.Inboxes[n]; len(is.Tags) != len(is.Queues) {
			return fmt.Errorf("mesh: snapshot inbox %d has %d tags but %d queues", n, len(is.Tags), len(is.Queues))
		}
	}
	if nw.faults == nil {
		if st.FaultCursor != 0 || st.FaultStats != (FaultStats{}) {
			return fmt.Errorf("mesh: snapshot is mid fault schedule but the network has none installed")
		}
	} else if st.FaultCursor < 0 || st.FaultCursor > len(nw.faults.sched) {
		return fmt.Errorf("mesh: snapshot is at entry %d of a %d-entry fault schedule", st.FaultCursor, len(nw.faults.sched))
	}
	if (st.React != nil) != (nw.react != nil) {
		return fmt.Errorf("mesh: snapshot and network disagree on reactive mode")
	}
	if rc := st.React; rc != nil {
		if len(rc.Nodes) != len(nw.react.nodes) {
			return fmt.Errorf("mesh: snapshot has reactive state for %d nodes, network has %d", len(rc.Nodes), len(nw.react.nodes))
		}
		for i := range rc.Nodes {
			nc := &rc.Nodes[i]
			if len(nc.SendDst) != len(nc.SendSeq) ||
				len(nc.RecvSrc) != len(nc.RecvFloor) || len(nc.RecvSrc) != len(nc.RecvSeen) ||
				len(nc.SuspDst) != len(nc.SuspAt) {
				return fmt.Errorf("mesh: snapshot reactive node %d has mismatched key/value slices", i)
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
		nw.faults.stats = st.FaultStats
	}
	if rc := st.React; rc != nil {
		r := nw.react
		r.base = rc.Stats
		for i := range rc.Nodes {
			nc := &rc.Nodes[i]
			n := &r.nodes[i]
			n.rng.SetState(nc.RNG)
			n.stats = FaultStats{} // folded into base at capture
			n.nextSend = make(map[int]uint32, len(nc.SendDst))
			for j, d := range nc.SendDst {
				n.nextSend[d] = nc.SendSeq[j]
			}
			n.out = make(map[uint64]*xmit)
			n.recv = make(map[int]*recvChan, len(nc.RecvSrc))
			for j, s := range nc.RecvSrc {
				ch := &recvChan{floor: nc.RecvFloor[j]}
				for _, sq := range nc.RecvSeen[j] {
					if ch.seen == nil {
						ch.seen = make(map[uint32]struct{}, len(nc.RecvSeen[j]))
					}
					ch.seen[sq] = struct{}{}
				}
				n.recv[s] = ch
			}
			n.suspect = make(map[int]sim.Time, len(nc.SuspDst))
			for j, d := range nc.SuspDst {
				n.suspect[d] = nc.SuspAt[j]
			}
		}
	}
	for i := range nw.links {
		nw.links[i] = link{busyUntil: st.LinkBusy[i], load: LinkLoad{Msgs: st.LinkMsgs[i], Bytes: st.LinkBytes[i]}}
	}
	copy(nw.cpuFree, st.CPUFree)
	copy(nw.computeUS, st.ComputeUS)
	nw.sendMsgs = st.SendMsgs
	nw.sendBytes = st.SendBytes
	for n := range st.Inboxes {
		is := &st.Inboxes[n]
		if len(is.Tags) == 0 {
			continue
		}
		ib := &nw.inboxes[n]
		ib.init()
		for i, tag := range is.Tags {
			q := make([]*Msg, len(is.Queues[i]))
			for j := range is.Queues[i] {
				m := is.Queues[i][j] // copy, so forks never share a Msg
				q[j] = &m
			}
			ib.queues[tag] = q
		}
	}
	return nil
}
