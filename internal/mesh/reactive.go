package mesh

import (
	"fmt"

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
	// GiveUpReissue restarts the attempt counter and backoff on the same
	// channel: the strategy has refreshed its own state (e.g. the spanning
	// forest re-embedded) and wants a fresh detection cycle. The transport
	// sequence number is kept, so a late duplicate of the original is
	// still deduplicated.
	GiveUpReissue
	// GiveUpRedirect retires the channel and re-targets the message at the
	// new destination the handler returned (fixedhome home failover).
	GiveUpRedirect
	// GiveUpDrop abandons the message: the handler has compensated at the
	// protocol level (e.g. treated a dead copy holder as invalidated).
	GiveUpDrop
)

// GiveUp describes an undeliverable message to its kind's give-up handler:
// MaxRetries+1 transmissions went unacknowledged. The handler may mutate
// protocol state and send messages; it returns the action to take and, for
// GiveUpRedirect, the new destination.
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
type GiveUpHandler func(g *GiveUp) (newDst int, action GiveUpAction)

// xmit is one outstanding (unacknowledged) transmission at its sender.
// A live record always has exactly one pending retransmission timer, so
// at kernel quiescence no records exist — snapshots capture none.
type xmit struct {
	src, dst    int
	size        int
	kind        uint8
	tag         int
	payload     interface{}
	xseq        uint32
	attempt     int  // transmissions so far
	gaveUp      bool // this detection cycle already counted in Detected
	delayUS     float64
	firstDepart sim.Time
	timer       sim.TimerID
}

// recvChan is one directed channel's receiver-side dedup state: every
// sequence at or below floor was delivered; seen holds the delivered
// sequences above it (out-of-order arrivals, bounded by the outstanding
// window).
type recvChan struct {
	floor uint32
	seen  map[uint32]struct{}
}

// accept reports whether xseq is fresh, recording it.
func (c *recvChan) accept(xseq uint32) bool {
	if xseq <= c.floor {
		return false
	}
	if _, ok := c.seen[xseq]; ok {
		return false
	}
	if xseq == c.floor+1 {
		c.floor++
		for {
			if _, ok := c.seen[c.floor+1]; !ok {
				break
			}
			delete(c.seen, c.floor+1)
			c.floor++
		}
		return true
	}
	if c.seen == nil {
		c.seen = make(map[uint32]struct{})
	}
	c.seen[xseq] = struct{}{}
	return true
}

// reactNode is one node's transport state. Every field is touched only in
// the node's own event context.
type reactNode struct {
	rng      *xrand.RNG
	nextSend map[int]uint32    // dst -> last channel sequence issued
	out      map[uint64]*xmit  // (dst, xseq) -> outstanding transmission
	recv     map[int]*recvChan // src -> receiver dedup state
	suspect  map[int]sim.Time  // dst -> time the sender declared it suspect
	stats    FaultStats        // event-context counters (summed by FaultStats)
	free     []*xmit           // recycled transmission records of this sender
}

// reactState is the network's reactive-mode state; nil in oracle mode.
type reactState struct {
	p      ReactParams
	seed   uint64 // the derived transport seed (for RNG re-derivation)
	nodes  []reactNode
	giveUp [256]GiveUpHandler
	base   FaultStats // restored-snapshot baseline of the folded node stats
}

// xkey packs a channel identity (destination, channel sequence).
func xkey(dst int, xseq uint32) uint64 {
	return uint64(uint32(dst))<<32 | uint64(xseq)
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
	r := &reactState{p: p, seed: seed, nodes: make([]reactNode, nw.T.N())}
	for i := range r.nodes {
		n := &r.nodes[i]
		n.rng = xrand.New(reactNodeSeed(seed, i))
		n.nextSend = make(map[int]uint32)
		n.out = make(map[uint64]*xmit)
		n.recv = make(map[int]*recvChan)
		n.suspect = make(map[int]sim.Time)
	}
	nw.react = r
	nw.reactTimeoutFn = nw.reactTimeout
	return nil
}

// Reactive reports whether the network runs in reactive mode.
func (nw *Network) Reactive() bool { return nw.react != nil }

// ReactParams returns the transport parameters (zero value in oracle mode).
func (nw *Network) ReactParams() ReactParams {
	if nw.react == nil {
		return ReactParams{}
	}
	return nw.react.p
}

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
	nw.react.seed = seed
	for i := range nw.react.nodes {
		nw.react.nodes[i].rng = xrand.New(reactNodeSeed(seed, i))
	}
}

func (sn *reactNode) acquireXmit() *xmit {
	if n := len(sn.free); n > 0 {
		x := sn.free[n-1]
		sn.free = sn.free[:n-1]
		return x
	}
	return &xmit{}
}

func (sn *reactNode) releaseXmit(x *xmit) {
	*x = xmit{}
	sn.free = append(sn.free, x)
}

// jitter draws the deterministic timeout jitter, uniform in [1, 1.25),
// from the node's private stream.
func (sn *reactNode) jitter() float64 { return 1 + sn.rng.Float64()/4 }

// reactOnSend intercepts a first transmission at the top of
// deliverAfterRoute: it stamps the channel sequence, registers the
// outstanding record and schedules the retransmission timer — before the
// delivery (or its in-window deferral) allocates the arrival sequence, so
// both execution modes allocate (timer, arrival) in the same order.
// Node-local messages, acks and retransmissions (xseq already stamped)
// pass through untouched.
func (nw *Network) reactOnSend(m *Msg, depart sim.Time) {
	if m.Src == m.Dst || m.Kind == KindTransportAck || m.xseq != 0 {
		return
	}
	r := nw.react
	sn := &r.nodes[m.Src]
	sn.nextSend[m.Dst]++
	m.xseq = sn.nextSend[m.Dst]
	m.xatt = 1
	x := sn.acquireXmit()
	*x = xmit{
		src: m.Src, dst: m.Dst, size: m.Size, kind: m.Kind, tag: m.Tag,
		payload: m.Payload, xseq: m.xseq, attempt: 1,
		delayUS: r.p.AckTimeoutUS, firstDepart: depart,
	}
	sn.out[xkey(m.Dst, m.xseq)] = x
	x.timer = nw.K.TimerAt(depart+x.delayUS*sn.jitter(), nw.reactTimeoutFn, x)
}

// reactTimeout fires when a transmission's ack timeout expires, in the
// sender's event context: retransmit with backed-off timeout, or — after
// MaxRetries+1 unacknowledged transmissions — declare the destination
// suspect and consult the kind's give-up handler.
func (nw *Network) reactTimeout(xi interface{}) {
	x := xi.(*xmit)
	r := nw.react
	sn := &r.nodes[x.src]
	k := nw.K
	if x.attempt > r.p.MaxRetries {
		if !x.gaveUp {
			// Detection: the first give-up of this cycle.
			x.gaveUp = true
			sn.stats.Detected++
			sn.stats.DetectUS += k.Now() - x.firstDepart
			if _, ok := sn.suspect[x.dst]; !ok {
				sn.suspect[x.dst] = k.Now()
			}
		}
		g := GiveUp{
			Src: x.src, Dst: x.dst, Size: x.size, Kind: x.kind, Tag: x.tag,
			Payload: x.payload, Attempts: x.attempt, FirstDepart: x.firstDepart,
		}
		newDst, action := x.dst, GiveUpRetry
		if h := r.giveUp[x.kind]; h != nil {
			newDst, action = h(&g)
		}
		switch action {
		case GiveUpDrop:
			delete(sn.out, xkey(x.dst, x.xseq))
			sn.releaseXmit(x)
			return
		case GiveUpRedirect:
			sn.stats.Failovers++
			src, size, kind, tag, payload := x.src, x.size, x.kind, x.tag, x.payload
			delete(sn.out, xkey(x.dst, x.xseq))
			sn.releaseXmit(x)
			m := nw.pool.get()
			m.Src, m.Dst, m.Size, m.Kind, m.Tag, m.Payload = src, newDst, size, kind, tag, payload
			nw.Send(m) // a fresh first transmission on the new channel
			return
		case GiveUpReissue:
			// Fresh detection cycle on the same channel: reset the attempt
			// counter and backoff; the retransmission below is attempt 1.
			sn.stats.Reissues++
			x.attempt = 0
			x.gaveUp = false
			x.delayUS = r.p.AckTimeoutUS / r.p.Backoff // restored by the bump below
			x.firstDepart = k.Now()
		case GiveUpRetry:
			// Keep probing at the capped backoff.
		}
	}
	// Retransmit: fresh copy, fresh send startup, backed-off timer.
	x.attempt++
	sn.stats.Retransmits++
	sn.stats.RetransmitBytes += uint64(x.size)
	if x.delayUS *= r.p.Backoff; x.delayUS > r.p.AckTimeoutUS*reactMaxBackoff {
		x.delayUS = r.p.AckTimeoutUS * reactMaxBackoff
	}
	m := nw.pool.get()
	m.Src, m.Dst, m.Size, m.Kind, m.Tag, m.Payload = x.src, x.dst, x.size, x.kind, x.tag, x.payload
	m.xseq, m.xatt = x.xseq, uint16(x.attempt)
	depart := nw.chargeSend(x.src)
	x.timer = nw.K.TimerAt(depart+x.delayUS*sn.jitter(), nw.reactTimeoutFn, x)
	nw.deliverAfterRoute(m, depart)
}

// reactAccept runs in the receiver's event context when a transport-
// sequenced message is ready: acknowledge it (always — a duplicate
// usually means the previous ack was lost) and report whether it is fresh.
// Duplicates are dropped without handler dispatch, which is what makes
// strategy-level redirects protocol-safe.
func (nw *Network) reactAccept(m *Msg) bool {
	r := nw.react
	dn := &r.nodes[m.Dst]
	ch := dn.recv[m.Src]
	if ch == nil {
		ch = &recvChan{}
		dn.recv[m.Src] = ch
	}
	fresh := ch.accept(m.xseq)
	if !fresh {
		dn.stats.DupDrops++
	}
	dn.stats.AckMsgs++
	dn.stats.AckBytes += TransportAckBytes
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
// seen) and clear the destination's suspect entry.
func (nw *Network) reactOnAck(m *Msg) {
	r := nw.react
	sn := &r.nodes[m.Dst]
	x := sn.out[xkey(m.Src, m.xseq)]
	if x == nil {
		return // duplicate ack for an already-retired record
	}
	nw.K.CancelTimer(x.timer)
	if a := int(m.xatt); a < x.attempt {
		sn.stats.FalseTimeouts += uint64(x.attempt - a)
	}
	if t, ok := sn.suspect[m.Src]; ok {
		sn.stats.Recovered++
		sn.stats.RecoverUS += nw.K.Now() - t
		delete(sn.suspect, m.Src)
	}
	delete(sn.out, xkey(m.Src, m.xseq))
	sn.releaseXmit(x)
}
