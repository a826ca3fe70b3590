package mesh

import (
	"fmt"
	"slices"

	"diva/internal/sim"
	"diva/internal/xrand"
)

// This file is the reliable-transport shim of the network's reactive
// fault-tolerance mode. In oracle mode (the default) a message that cannot
// be delivered consults global link state and is held until the exact heal
// time; no simulated protocol ever detects a failure. In reactive mode the
// network is lossy — a message crossing a failure point is silently
// dropped (fault.go) — and delivery is recovered end to end: every
// cross-node message carries a per-channel sequence number, the receiver
// acknowledges it with a fire-and-forget ack, and the sender runs a
// retransmission timer (a cancelable kernel event, sim/timer.go) with
// exponential backoff and deterministic jitter drawn from per-node
// seed-derived RNG streams. After MaxRetries consecutive timeouts the sender declares the
// destination suspect — timeout-based failure detection — and consults the
// message kind's give-up handler, which is where the strategies hook their
// recovery (fixedhome home failover, accesstree re-issue).
//
// Everything is deterministic by construction: timers are ordinary
// (t, seq) events, per-channel sequence numbers and RNG draws advance in
// each node's event order, and the drop decision happens in the routing
// order. Runs are therefore fingerprint-identical across fork/restore.

// KindTransportAck is the message kind reserved for transport
// acknowledgements in reactive mode. It is intercepted by the delivery
// path before handler dispatch; registering a handler for it on a reactive
// network panics.
const KindTransportAck uint8 = 255

// TransportAckBytes is the wire size of one transport ack.
const TransportAckBytes = 8

// reactMaxBackoff caps the retransmission backoff at this multiple of the
// base timeout, so a sender waiting out a long outage keeps probing.
const reactMaxBackoff = 64

// ReactParams configures the reliable transport of reactive mode.
type ReactParams struct {
	// AckTimeoutUS is the base retransmission timeout: the time a sender
	// waits for an ack before retransmitting (scaled by backoff and
	// jitter on every subsequent attempt).
	AckTimeoutUS float64
	// MaxRetries is the number of consecutive unacknowledged
	// retransmissions after which the sender declares the destination
	// suspect and consults the kind's give-up handler.
	MaxRetries int
	// Backoff is the timeout multiplier per attempt (exponential backoff,
	// capped at reactMaxBackoff times the base).
	Backoff float64
}

// DefaultReactParams returns the reactive-transport defaults: 2 ms base
// timeout (a healthy request/response round trip is well under 1 ms at
// GCel timings), 5 retries, doubling backoff.
func DefaultReactParams() ReactParams {
	return ReactParams{AckTimeoutUS: 2000, MaxRetries: 5, Backoff: 2}
}

// Validate reports the first invalid field, or nil.
func (p ReactParams) Validate() error {
	if !(p.AckTimeoutUS > 0) {
		return fmt.Errorf("mesh: ack timeout must be positive, have %g", p.AckTimeoutUS)
	}
	if p.MaxRetries < 1 {
		return fmt.Errorf("mesh: max retries must be at least 1, have %d", p.MaxRetries)
	}
	if !(p.Backoff >= 1) {
		return fmt.Errorf("mesh: backoff must be at least 1, have %g", p.Backoff)
	}
	return nil
}

// GiveUpAction is a give-up handler's verdict on an undeliverable message.
type GiveUpAction uint8

const (
	// GiveUpRetry keeps retransmitting on the same channel at the capped
	// backoff (the default for kinds without a handler: delivery is
	// eventually guaranteed because every fault schedule ends healed).
	GiveUpRetry GiveUpAction = iota
	// GiveUpReissue restarts the attempt counter, keeping the backoff, on
	// the same channel: the strategy has refreshed its own state (e.g. the
	// spanning forest re-embedded) and wants a fresh detection cycle. The
	// transport sequence number is kept, so a late duplicate of the
	// original is still deduplicated.
	GiveUpReissue
	// GiveUpRedirect retires the channel and re-targets the message at the
	// new destination the handler returned (fixedhome home failover).
	GiveUpRedirect
	// GiveUpDrop abandons the message: the handler has compensated at the
	// protocol level (e.g. treated a dead copy holder as invalidated).
	GiveUpDrop
)

// GiveUp describes an undeliverable message to its kind's give-up handler:
// MaxRetries+1 transmissions went unacknowledged. It is passed by value, so
// a give-up allocates nothing; a handler that keeps it keeps its own copy.
// The handler may mutate protocol state and send messages; it returns the
// action to take and, for GiveUpRedirect, the new destination.
type GiveUp struct {
	Src, Dst    int
	Size        int
	Kind        uint8
	Tag         int
	Payload     interface{}
	Attempts    int      // transmissions so far
	FirstDepart sim.Time // departure of the first transmission
}

// GiveUpHandler decides what to do with an undeliverable message.
// newDst is only consulted for GiveUpRedirect.
type GiveUpHandler func(g GiveUp) (newDst int, action GiveUpAction)

// xmit is one outstanding (unacknowledged) transmission at its sender.
// A live record always has exactly one pending retransmission timer, so
// at kernel quiescence no records exist — snapshots capture none. Records
// are carved from fixed-size blocks and never move: the timer holds the
// pointer.
type xmit struct {
	src, dst    int
	size        int
	kind        uint8
	gaveUp      bool // this detection cycle already counted in Detected
	tag         int
	payload     interface{}
	xseq        uint32
	ch          int32 // the channel (src, dst): an index into reactState.chans
	id          int32 // this record's index in the blocks
	next        int32 // next record of the channel's outstanding list or of the free list; -1 ends both
	attempt     int   // transmissions so far
	delayUS     float64
	firstDepart sim.Time
	timer       sim.TimerID
}

// xmitBlock is the number of transmission records carved at a time.
const xmitBlock = 64

// Which sides of a channel a snapshot records (channel.has).
const (
	chanSend uint8 = 1 << iota // the sender issued a sequence
	chanRecv                   // the receiver accepted a transmission
	chanSusp                   // the sender suspects the destination
)

// channel is one directed channel's transport state, both ends of it: the
// last sequence the sender issued, the receiver's dedup state (every
// sequence at or below floor was delivered; seen holds the delivered
// sequences above it, ascending — out-of-order arrivals, bounded by the
// outstanding window), the time the sender declared the destination
// suspect, and the sender's outstanding transmissions, newest first.
type channel struct {
	src, dst int32
	sendSeq  uint32
	floor    uint32
	seen     []uint32
	suspAt   sim.Time
	head     int32 // newest outstanding record; -1 when there is none
	has      uint8 // chanSend|chanRecv|chanSusp
}

// accept reports whether xseq is fresh, recording it.
func (c *channel) accept(xseq uint32) bool {
	c.has |= chanRecv
	if xseq <= c.floor {
		return false
	}
	i, dup := slices.BinarySearch(c.seen, xseq)
	if dup {
		return false
	}
	if xseq != c.floor+1 {
		c.seen = slices.Insert(c.seen, i, xseq)
		return true
	}
	c.floor++
	n := 0
	for n < len(c.seen) && c.seen[n] == c.floor+1 {
		c.floor++
		n++
	}
	c.seen = append(c.seen[:0], c.seen[n:]...)
	return true
}

// suspect records that the sender declared the destination suspect at t,
// unless it already had.
func (c *channel) suspect(t sim.Time) {
	if c.has&chanSusp == 0 {
		c.has |= chanSusp
		c.suspAt = t
	}
}

// unsuspect clears the suspicion, reporting when it was raised.
func (c *channel) unsuspect() (since sim.Time, was bool) {
	if c.has&chanSusp == 0 {
		return 0, false
	}
	c.has &^= chanSusp
	since, c.suspAt = c.suspAt, 0
	return since, true
}

// reactState is the network's reactive-mode state; nil in oracle mode.
// Channel state is one table for the whole network, holding the channels
// that carried traffic, and every transmission record comes from its blocks.
type reactState struct {
	p      ReactParams
	rngs   []xrand.RNG // per node: the jitter stream
	giveUp [256]GiveUpHandler

	chanIdx map[uint64]int32 // (src, dst) -> index in chans
	chans   []channel
	blocks  []*[xmitBlock]xmit
	carved  int32 // records carved from blocks so far
	free    int32 // head of the free record list, -1 when empty
	live    int   // outstanding records
}

func newReactState(p ReactParams, seed uint64, nodes int) *reactState {
	r := &reactState{p: p, rngs: make([]xrand.RNG, nodes), chanIdx: make(map[uint64]int32), free: -1}
	for i := range r.rngs {
		r.rngs[i].Seed(reactNodeSeed(seed, i))
	}
	return r
}

// channel returns the index of channel (src, dst), adding it on first use.
// Adding may move the table: re-take pointers into chans after a call.
func (r *reactState) channel(src, dst int) int32 {
	key := uint64(src)<<32 | uint64(uint32(dst))
	if ci, ok := r.chanIdx[key]; ok {
		return ci
	}
	ci := int32(len(r.chans))
	r.chans = append(r.chans, channel{src: int32(src), dst: int32(dst), head: -1})
	r.chanIdx[key] = ci
	return ci
}

// at returns channel (src, dst), adding it on first use.
func (r *reactState) at(src, dst int) *channel {
	ci := r.channel(src, dst)
	return &r.chans[ci]
}

// issue stamps the next sequence of channel (src, dst).
func (r *reactState) issue(src, dst int) (ci int32, xseq uint32) {
	ci = r.channel(src, dst)
	c := &r.chans[ci]
	c.sendSeq++
	c.has |= chanSend
	return ci, c.sendSeq
}

func (r *reactState) rec(id int32) *xmit { return &r.blocks[id/xmitBlock][id%xmitBlock] }

// track stores x, whose ch is set, as the newest outstanding transmission
// of its channel and returns the stored record.
func (r *reactState) track(x xmit) *xmit {
	id := r.free
	if id >= 0 {
		r.free = r.rec(id).next
	} else {
		if r.carved%xmitBlock == 0 {
			r.blocks = append(r.blocks, new([xmitBlock]xmit))
		}
		id = r.carved
		r.carved++
	}
	c := &r.chans[x.ch]
	p := r.rec(id)
	*p = x
	p.id, p.next, c.head = id, c.head, id
	r.live++
	return p
}

// outstanding returns channel ci's outstanding transmission xseq, or nil.
func (r *reactState) outstanding(ci int32, xseq uint32) *xmit {
	for id := r.chans[ci].head; id >= 0; {
		x := r.rec(id)
		if x.xseq == xseq {
			return x
		}
		id = x.next
	}
	return nil
}

// retire unlinks x from its channel and frees its record.
func (r *reactState) retire(x *xmit) {
	c := &r.chans[x.ch]
	prev := int32(-1)
	for id := c.head; id != x.id; id = r.rec(id).next {
		prev = id
	}
	if prev < 0 {
		c.head = x.next
	} else {
		r.rec(prev).next = x.next
	}
	*x = xmit{id: x.id, next: r.free}
	r.free = x.id
	r.live--
}

// reactNodeSeed derives node's private RNG stream from the transport seed.
func reactNodeSeed(seed uint64, node int) uint64 {
	return seed ^ (uint64(node)+1)*0x9e3779b97f4a7c15
}

// EnableReactive switches the network to reactive fault-tolerance mode:
// lossy delivery at failure points plus the ack/retransmit transport. seed
// is the dedicated transport seed (the machine layer derives it from the
// run seed under a private salt, the fault.Gen pattern); the per-node
// jitter streams split off it. Must be called before any message is sent.
func (nw *Network) EnableReactive(p ReactParams, seed uint64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if nw.react != nil {
		return fmt.Errorf("mesh: reactive mode already enabled")
	}
	if nw.handlers[KindTransportAck] != nil {
		return fmt.Errorf("mesh: message kind %d is reserved for transport acks in reactive mode", KindTransportAck)
	}
	nw.react = newReactState(p, seed, nw.T.N())
	nw.reactTimeoutFn = nw.reactTimeout
	nw.countFaults()
	return nil
}

// Reactive reports whether the network runs in reactive mode.
func (nw *Network) Reactive() bool { return nw.react != nil }

// OnGiveUp registers kind's give-up handler: called when MaxRetries+1
// transmissions of a message went unacknowledged. Strategies register
// their recovery here. Panics on kind 255 (the ack kind never gives up —
// acks are fire-and-forget) and on double registration.
func (nw *Network) OnGiveUp(kind uint8, h GiveUpHandler) {
	if nw.react == nil {
		panic("mesh: OnGiveUp on an oracle-mode network")
	}
	if kind == KindTransportAck {
		panic("mesh: transport acks have no give-up handler")
	}
	if nw.react.giveUp[kind] != nil {
		panic(fmt.Sprintf("mesh: give-up handler for kind %d registered twice", kind))
	}
	nw.react.giveUp[kind] = h
}

// NodeDownNow reports whether node's network interface is down at the
// fault schedule's current position (false without a schedule). Give-up
// handlers consult it to choose between "wait for heal" and "fail over";
// the detection *timing* stays reactive — this is only read after the
// transport has already timed out.
func (nw *Network) NodeDownNow(node int) bool {
	if nw.faults == nil {
		return false
	}
	return nw.faults.nodeDown[node]
}

// ReactReseed re-derives the per-node jitter streams from a fresh
// transport seed (fork-with-reseed; mirrors the strategy Reseed contract).
func (nw *Network) ReactReseed(seed uint64) {
	if nw.react == nil {
		return
	}
	for i := range nw.react.rngs {
		nw.react.rngs[i].Seed(reactNodeSeed(seed, i))
	}
}

// jitter draws the deterministic timeout jitter, uniform in [1, 1.25),
// from node's private stream.
func (r *reactState) jitter(node int) float64 { return 1 + r.rngs[node].Float64()/4 }

// reactOnSend intercepts a first transmission at the top of
// deliverAfterRoute: it stamps the channel sequence, registers the
// outstanding record and schedules the retransmission timer, so the timer
// takes its event sequence before the delivery takes the arrival's.
// Node-local messages, acks and retransmissions (xseq already stamped)
// pass through untouched.
func (nw *Network) reactOnSend(m *Msg, depart sim.Time) {
	if m.Src == m.Dst || m.Kind == KindTransportAck || m.xseq != 0 {
		return
	}
	r := nw.react
	ci, xseq := r.issue(m.Src, m.Dst)
	m.xseq = xseq
	m.xatt = 1
	x := r.track(xmit{
		src: m.Src, dst: m.Dst, size: m.Size, kind: m.Kind, tag: m.Tag,
		payload: m.Payload, xseq: xseq, ch: ci, attempt: 1,
		delayUS: r.p.AckTimeoutUS, firstDepart: depart,
	})
	x.timer = nw.K.TimerAt(depart+x.delayUS*r.jitter(m.Src), nw.reactTimeoutFn, x)
}

// reactTimeout fires when a transmission's ack timeout expires, in the
// sender's event context: retransmit with backed-off timeout, or — after
// MaxRetries+1 unacknowledged transmissions — declare the destination
// suspect and consult the kind's give-up handler.
func (nw *Network) reactTimeout(xi interface{}) {
	x := xi.(*xmit)
	r, st, k := nw.react, nw.stats, nw.K
	if x.attempt > r.p.MaxRetries {
		if !x.gaveUp {
			// Detection: the first give-up of this cycle.
			x.gaveUp = true
			st.Detected++
			st.DetectUS += k.Now() - x.firstDepart
			r.chans[x.ch].suspect(k.Now())
		}
		newDst, action := x.dst, GiveUpRetry
		if h := r.giveUp[x.kind]; h != nil {
			newDst, action = h(GiveUp{
				Src: x.src, Dst: x.dst, Size: x.size, Kind: x.kind, Tag: x.tag,
				Payload: x.payload, Attempts: x.attempt, FirstDepart: x.firstDepart,
			})
		}
		switch action {
		case GiveUpDrop:
			r.retire(x)
			return
		case GiveUpRedirect:
			st.Failovers++
			src, size, kind, tag, payload := x.src, x.size, x.kind, x.tag, x.payload
			r.retire(x)
			m := nw.pool.get()
			m.Src, m.Dst, m.Size, m.Kind, m.Tag, m.Payload = src, newDst, size, kind, tag, payload
			nw.Send(m) // a fresh first transmission on the new channel
			return
		case GiveUpReissue:
			// Fresh detection cycle: the retransmission below is attempt 1.
			// The backoff stays: from the base timeout, a round trip that
			// outgrew it under load would outgrow it again, forever.
			st.Reissues++
			x.attempt = 0
			x.gaveUp = false
			x.delayUS /= r.p.Backoff // restored by the bump below
			x.firstDepart = k.Now()
		case GiveUpRetry:
			// Keep probing at the capped backoff.
		}
	}
	// Retransmit: fresh copy, fresh send startup, backed-off timer.
	x.attempt++
	st.Retransmits++
	st.RetransmitBytes += uint64(x.size)
	if x.delayUS *= r.p.Backoff; x.delayUS > r.p.AckTimeoutUS*reactMaxBackoff {
		x.delayUS = r.p.AckTimeoutUS * reactMaxBackoff
	}
	m := nw.pool.get()
	m.Src, m.Dst, m.Size, m.Kind, m.Tag, m.Payload = x.src, x.dst, x.size, x.kind, x.tag, x.payload
	m.xseq, m.xatt = x.xseq, uint16(x.attempt)
	depart := nw.chargeSend(x.src)
	x.timer = nw.K.TimerAt(depart+x.delayUS*r.jitter(x.src), nw.reactTimeoutFn, x)
	nw.deliverAfterRoute(m, depart)
}

// reactAccept runs in the receiver's event context when a transport-
// sequenced message is ready: acknowledge it (always — a duplicate
// usually means the previous ack was lost) and report whether it is fresh.
// Duplicates are dropped without handler dispatch, which is what makes
// strategy-level redirects protocol-safe.
func (nw *Network) reactAccept(m *Msg) bool {
	st := nw.stats
	fresh := nw.react.at(m.Src, m.Dst).accept(m.xseq)
	if !fresh {
		st.DupDrops++
	}
	st.AckMsgs++
	st.AckBytes += TransportAckBytes
	ack := nw.pool.get()
	ack.Src, ack.Dst, ack.Size, ack.Kind = m.Dst, m.Src, TransportAckBytes, KindTransportAck
	ack.xseq, ack.xatt = m.xseq, m.xatt
	depart := nw.chargeSend(m.Dst)
	nw.deliverAfterRoute(ack, depart)
	return fresh
}

// reactOnAck runs in the original sender's event context when an ack
// arrives: cancel the retransmission timer, retire the record, account
// false timeouts (retransmissions of attempts the receiver had already
// seen) and clear the destination's suspicion.
func (nw *Network) reactOnAck(m *Msg) {
	r := nw.react
	ci := r.channel(m.Dst, m.Src)
	x := r.outstanding(ci, m.xseq)
	if x == nil {
		return // duplicate ack for an already-retired record
	}
	st := nw.stats
	nw.K.CancelTimer(x.timer)
	if a := int(m.xatt); a < x.attempt {
		st.FalseTimeouts += uint64(x.attempt - a)
	}
	if since, ok := r.chans[ci].unsuspect(); ok {
		st.Recovered++
		st.RecoverUS += nw.K.Now() - since
	}
	r.retire(x)
}
