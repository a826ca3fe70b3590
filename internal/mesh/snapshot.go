package mesh

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"diva/internal/sim"
	"diva/internal/wire"
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
// value a fork restores from and the value a snapshot file carries
// (Append, ReadNetworkState) — one representation for both. It is
// immutable after capture; any number of forks can restore from one.
// Message payloads are shared by reference (immutable by the library-wide
// contract) and reach a file through the value codecs their defining
// packages register (diva/internal/wire).
type NetworkState struct {
	// Per directed link: the busy-until clock and the accumulated load.
	LinkBusy  []sim.Time
	LinkMsgs  []uint64
	LinkBytes []uint64
	CPUFree   []sim.Time
	ComputeUS []float64
	SendMsgs  [NumKinds]uint64
	SendBytes [NumKinds]uint64
	// Inbox holds the queued, not yet received messages node by node (a
	// queued message's Dst is its node), each node's in arrival order:
	// the node queues as the network holds them, back to back. Msg values
	// are copied; a queued message is never pooled (inbox.go).
	Inbox []Msg

	// Fault engine position: the schedule cursor. The schedule itself is
	// part of the machine configuration (replayed at fork construction),
	// so the position fully determines link state — restore re-applies
	// the schedule prefix.
	FaultCursor int
	// The fault counters of the schedule and the reactive transport.
	FaultStats FaultStats

	// Reactive transport state (nil for oracle-mode captures). No
	// outstanding transmissions or timers exist at quiescence (a live
	// record always holds a pending timer, which blocks the capture).
	React *ReactState
}

// ReactState is the reactive transport's captured state: each node's
// jitter-stream position and the network's one channel table, every
// channel that records a side, ascending by (Src, Dst) — so captures of
// identical runs are identical.
type ReactState struct {
	RNGs  []xrand.State
	Chans []ReactChannel
}

// ReactChannel is one directed channel's captured state: the sides it
// records (Has: send 1, receive 2, suspect 4), the last sequence the
// sender issued, the receiver's floor and the delivered sequences above
// it, ascending, and the time the sender declared the destination
// suspect. The values of a side it does not record are zero.
type ReactChannel struct {
	Src, Dst int32
	Has      uint8
	SendSeq  uint32
	Floor    uint32
	Seen     []uint32
	SuspAt   sim.Time
}

// key orders channels by (Src, Dst), for nodes of the network.
func (c *ReactChannel) key() uint64 { return uint64(c.Src)<<32 | uint64(c.Dst) }

// Append appends the state to b. It fails when a queued message's payload
// has a type no package registered a codec for.
func (st *NetworkState) Append(b []byte) ([]byte, error) {
	b = wire.AppendSlice(b, st.LinkBusy, wire.AppendFloat64)
	b = wire.AppendSlice(b, st.LinkMsgs, wire.AppendUvarint)
	b = wire.AppendSlice(b, st.LinkBytes, wire.AppendUvarint)
	b = wire.AppendSlice(b, st.CPUFree, wire.AppendFloat64)
	b = wire.AppendSlice(b, st.ComputeUS, wire.AppendFloat64)
	for _, x := range st.SendMsgs {
		b = wire.AppendUvarint(b, x)
	}
	for _, x := range st.SendBytes {
		b = wire.AppendUvarint(b, x)
	}
	b = wire.AppendSlice(b, st.Inbox, appendMsg)
	payloads := make([]any, len(st.Inbox))
	for i := range st.Inbox {
		payloads[i] = st.Inbox[i].Payload
	}
	b, err := wire.AppendValues(b, payloads)
	if err != nil {
		return b, fmt.Errorf("mesh: inbox payload: %w", err)
	}
	b = wire.AppendInt(b, st.FaultCursor)
	b = st.FaultStats.append(b)
	b = wire.AppendBool(b, st.React != nil)
	if rc := st.React; rc != nil {
		b = wire.AppendSlice(b, rc.RNGs, func(b []byte, s xrand.State) []byte { return s.Append(b) })
		b = wire.AppendSlice(b, rc.Chans, appendChannel)
	}
	return b, nil
}

// ReadNetworkState reads a NetworkState that Append wrote.
func ReadNetworkState(r *wire.Reader) *NetworkState {
	st := &NetworkState{
		LinkBusy:  wire.ReadSlice(r, 8, (*wire.Reader).Float64),
		LinkMsgs:  wire.ReadSlice(r, 1, (*wire.Reader).Uvarint),
		LinkBytes: wire.ReadSlice(r, 1, (*wire.Reader).Uvarint),
		CPUFree:   wire.ReadSlice(r, 8, (*wire.Reader).Float64),
		ComputeUS: wire.ReadSlice(r, 8, (*wire.Reader).Float64),
	}
	for i := range st.SendMsgs {
		st.SendMsgs[i] = r.Uvarint()
	}
	for i := range st.SendBytes {
		st.SendBytes[i] = r.Uvarint()
	}
	st.Inbox = wire.ReadSlice(r, queuedMsgBytes, readMsg)
	for i, p := range r.Values(len(st.Inbox)) {
		st.Inbox[i].Payload = p
	}
	st.FaultCursor = r.Int()
	st.FaultStats = readFaultStats(r)
	if r.Bool() {
		st.React = &ReactState{
			RNGs:  wire.ReadSlice(r, 32, xrand.ReadState),
			Chans: wire.ReadSlice(r, chanBytes, readChannel),
		}
	}
	return st
}

// queuedMsgBytes is the least number of bytes a queued message takes.
const queuedMsgBytes = 7

func appendMsg(b []byte, m Msg) []byte {
	b = wire.AppendInt(b, m.Src)
	b = wire.AppendInt(b, m.Dst)
	b = wire.AppendInt(b, m.Size)
	b = append(b, m.Kind)
	b = wire.AppendInt(b, m.Tag)
	b = wire.AppendUint32(b, m.xseq)
	return wire.AppendUvarint(b, uint64(m.xatt))
}

func readMsg(r *wire.Reader) Msg {
	return Msg{Src: r.Int(), Dst: r.Int(), Size: r.Int(), Kind: r.Byte(), Tag: r.Int(), xseq: r.Uint32(), xatt: r.Uint16()}
}

func (s *FaultStats) append(b []byte) []byte {
	for _, x := range [...]uint64{s.Routed, s.Rerouted, s.ReroutedHops, s.BaseHops,
		s.Held, s.HeldBytes, s.RetryMsgs, s.RetryBytes,
		s.Dropped, s.DroppedBytes, s.AckMsgs, s.AckBytes, s.Retransmits, s.RetransmitBytes,
		s.DupDrops, s.FalseTimeouts, s.Detected, s.Recovered, s.Failovers, s.Reissues} {
		b = wire.AppendUvarint(b, x)
	}
	b = wire.AppendFloat64(b, s.HeldUS)
	return wire.AppendFloat64(b, s.DetectUS)
}

func readFaultStats(r *wire.Reader) FaultStats {
	return FaultStats{Routed: r.Uvarint(), Rerouted: r.Uvarint(), ReroutedHops: r.Uvarint(), BaseHops: r.Uvarint(),
		Held: r.Uvarint(), HeldBytes: r.Uvarint(), RetryMsgs: r.Uvarint(), RetryBytes: r.Uvarint(),
		Dropped: r.Uvarint(), DroppedBytes: r.Uvarint(), AckMsgs: r.Uvarint(), AckBytes: r.Uvarint(),
		Retransmits: r.Uvarint(), RetransmitBytes: r.Uvarint(),
		DupDrops: r.Uvarint(), FalseTimeouts: r.Uvarint(), Detected: r.Uvarint(), Recovered: r.Uvarint(),
		Failovers: r.Uvarint(), Reissues: r.Uvarint(),
		HeldUS: r.Float64(), DetectUS: r.Float64()}
}

// chanBytes is the least number of bytes a channel takes.
const chanBytes = 14

func appendChannel(b []byte, c ReactChannel) []byte {
	b = wire.AppendInt32(b, c.Src)
	b = wire.AppendInt32(b, c.Dst)
	b = append(b, c.Has)
	b = wire.AppendUint32(b, c.SendSeq)
	b = wire.AppendUint32(b, c.Floor)
	b = wire.AppendSlice(b, c.Seen, wire.AppendUint32)
	return wire.AppendFloat64(b, c.SuspAt)
}

func readChannel(r *wire.Reader) ReactChannel {
	return ReactChannel{Src: r.Int32(), Dst: r.Int32(), Has: r.Byte(), SendSeq: r.Uint32(), Floor: r.Uint32(),
		Seen: wire.ReadSlice(r, 1, (*wire.Reader).Uint32), SuspAt: r.Float64()}
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
		if ib.q != nil {
			st.Inbox = append(st.Inbox, ib.q.msgs...)
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
	n := len(nw.cpuFree)
	if len(st.CPUFree) != n || len(st.ComputeUS) != n {
		return fmt.Errorf("mesh: snapshot has %d/%d node clocks/compute totals, network has %d nodes",
			len(st.CPUFree), len(st.ComputeUS), n)
	}
	// A time must be finite and not negative: a NaN or infinite one would
	// carry into the clock of every event scheduled from it.
	for _, clocks := range [...]struct {
		name string
		ts   []float64
	}{{"link clock", st.LinkBusy}, {"node clock", st.CPUFree}, {"compute total", st.ComputeUS}} {
		for i, t := range clocks.ts {
			if !(t >= 0 && t <= math.MaxFloat64) {
				return fmt.Errorf("mesh: snapshot %s %d reads %v", clocks.name, i, t)
			}
		}
	}
	for i := range st.Inbox {
		m := &st.Inbox[i]
		switch {
		case m.Kind != KindInbox:
			return fmt.Errorf("mesh: snapshot inbox message %d has kind %d", i, m.Kind)
		case m.Dst < 0 || m.Dst >= n || i > 0 && m.Dst < st.Inbox[i-1].Dst:
			return fmt.Errorf("mesh: snapshot inbox message %d is queued at node %d, out of node order or range", i, m.Dst)
		case m.Src < 0 || m.Src >= n:
			return fmt.Errorf("mesh: snapshot inbox message %d comes from node %d", i, m.Src)
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
	if st.React != nil {
		if err := st.React.check(n); err != nil {
			return fmt.Errorf("mesh: snapshot reactive state: %w", err)
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
	for i := range st.Inbox {
		q := nw.inbox.queue(st.Inbox[i].Dst)
		q.msgs = append(q.msgs, st.Inbox[i])
	}
	return nil
}

// capture copies the transport's node streams and the channels that
// record a side, sorted by (src, dst). Outstanding records are not
// captured.
func (r *reactState) capture() *ReactState {
	rc := &ReactState{RNGs: make([]xrand.State, len(r.rngs)), Chans: make([]ReactChannel, 0, len(r.chans))}
	for i := range r.rngs {
		rc.RNGs[i] = r.rngs[i].State()
	}
	for i := range r.chans {
		c := &r.chans[i]
		if c.has == 0 {
			continue
		}
		rc.Chans = append(rc.Chans, ReactChannel{Src: c.src, Dst: c.dst, Has: c.has, SendSeq: c.sendSeq, Floor: c.floor, SuspAt: c.suspAt})
		if len(c.seen) > 0 {
			rc.Chans[len(rc.Chans)-1].Seen = slices.Clone(c.seen)
		}
	}
	slices.SortFunc(rc.Chans, func(a, b ReactChannel) int { return cmp.Compare(a.key(), b.key()) })
	return rc
}

// restore replaces the channel table and node streams with a checked
// captured state; nothing may be outstanding.
func (r *reactState) restore(rc *ReactState) {
	for i := range rc.RNGs {
		r.rngs[i].SetState(rc.RNGs[i])
	}
	clear(r.chanIdx)
	r.chans = r.chans[:0]
	for i := range rc.Chans {
		cs := &rc.Chans[i]
		c := r.at(int(cs.Src), int(cs.Dst))
		c.has, c.sendSeq, c.floor, c.suspAt = cs.Has, cs.SendSeq, cs.Floor, cs.SuspAt
		c.seen = append(c.seen[:0], cs.Seen...)
	}
}

// check validates a captured transport state on an n-node network: one
// stream position a node, and channels between two distinct nodes of the
// network in strictly ascending (src, dst) order — so each at most once —
// that record a side and hold no value of a side they do not, with dedup
// sets strictly ascending above their floor and suspect times that are
// finite and not negative.
func (rc *ReactState) check(n int) error {
	if len(rc.RNGs) != n {
		return fmt.Errorf("%d node streams, network has %d nodes", len(rc.RNGs), n)
	}
	for i := range rc.Chans {
		c := &rc.Chans[i]
		switch {
		case c.Src < 0 || int(c.Src) >= n || c.Dst < 0 || int(c.Dst) >= n || c.Src == c.Dst:
			return fmt.Errorf("channel %d→%d does not join two nodes of the network", c.Src, c.Dst)
		case i > 0 && rc.Chans[i-1].key() >= c.key():
			return fmt.Errorf("channels not strictly ascending at %d→%d", c.Src, c.Dst)
		case c.Has == 0 || c.Has&^(chanSend|chanRecv|chanSusp) != 0:
			return fmt.Errorf("channel %d→%d records sides %#x", c.Src, c.Dst, c.Has)
		case c.Has&chanSend == 0 && c.SendSeq != 0,
			c.Has&chanRecv == 0 && (c.Floor != 0 || len(c.Seen) != 0),
			c.Has&chanSusp == 0 && c.SuspAt != 0:
			return fmt.Errorf("channel %d→%d holds state of a side it does not record", c.Src, c.Dst)
		case !(c.SuspAt >= 0) || math.IsInf(c.SuspAt, 1):
			return fmt.Errorf("channel %d→%d: suspect time %g", c.Src, c.Dst, c.SuspAt)
		}
		for q, sq := range c.Seen {
			if sq <= c.Floor || (q > 0 && sq <= c.Seen[q-1]) {
				return fmt.Errorf("channel %d→%d: sequence %d seen out of order or at or below floor %d", c.Src, c.Dst, sq, c.Floor)
			}
		}
	}
	return nil
}
