package mesh

import (
	"fmt"

	"diva/internal/sim"
)

// Params holds the timing characteristics of the simulated machine. The
// defaults (GCelParams) are calibrated against the numbers reported in §3 of
// the paper for the Parsytec GCel.
type Params struct {
	// BytesPerUS is the link bandwidth in bytes per microsecond
	// (1.0 ≈ 1 MB/s, the measured GCel link bandwidth). Both directions of
	// a link are independent, as measured in the paper.
	BytesPerUS float64
	// HopLatencyUS is the per-hop head latency of the wormhole router.
	HopLatencyUS float64
	// StartupSendUS is the per-message software overhead at the sender
	// ("the sending of a message by a processor is called a startup").
	StartupSendUS float64
	// StartupRecvUS is the overhead of the receiving processor, which the
	// paper includes in the startup cost.
	StartupRecvUS float64
	// LocalDeliveryUS is the cost of a message between two simulated tree
	// nodes hosted on the same processor (a function call, no network).
	LocalDeliveryUS float64
	// NoBackpressure disables wormhole path holding: links are then
	// occupied independently for one message duration each. The default
	// (false) models wormhole routing, where a message holds every link
	// of its path until its tail has drained — so congestion around a
	// hotspot backs up the paths leading to it, as on the real machine.
	NoBackpressure bool
}

// GCelParams returns timing parameters modeled on the Parsytec GCel: 1
// byte/µs links, large per-message startup (full bandwidth is only reached
// near 1 KB messages), link/processor speed ratio ≈ 0.86, and a
// substantial per-hop latency (the T805-era routing involves processors
// that are roughly as slow as the links).
func GCelParams() Params {
	return Params{
		BytesPerUS:      1.0,
		HopLatencyUS:    40,
		StartupSendUS:   100,
		StartupRecvUS:   100,
		LocalDeliveryUS: 2,
	}
}

// Msg is a message in flight. Size is the wire size in bytes including
// headers; Kind selects the registered handler at the destination; Tag and
// Payload are opaque to the network.
//
// Messages sent by SendPooled(Tag) are recycled onto a free list as soon
// as their destination handler returns; handlers must not retain such a
// message (retaining the Payload is fine). Messages constructed directly
// with &Msg{...} are never recycled and may be kept forever.
// KindInbox messages are no exception: the inbox copies a delivered
// message by value, and Recv returns that copy, which the receiver owns.
type Msg struct {
	Src, Dst int
	Size     int
	Kind     uint8
	pooled   bool
	Tag      int
	Payload  interface{}

	// Reactive-transport header (reactive.go), zero in oracle mode: the
	// per-channel sequence number stamped on first transmission (0 = not
	// yet stamped) and the transmission attempt it was part of (echoed in
	// the ack, so the sender can count false timeouts exactly).
	xseq uint32
	xatt uint16
}

// LinkLoad is the accumulated traffic of one directed link.
type LinkLoad struct {
	Msgs  uint64
	Bytes uint64
}

type link struct {
	busyUntil sim.Time
	load      LinkLoad
}

// Handler processes a delivered message at its destination, in event
// context. Handlers must not block; they may send further messages and
// complete futures.
type Handler func(*Msg)

// Network simulates the interconnect of any Topology: routing, contention,
// congestion accounting, per-node CPU/startup accounting and message
// dispatch.
type Network struct {
	K *sim.Kernel
	T Topology
	P Params

	links    []link
	handlers [256]Handler

	cpuFree   []sim.Time // per node: time the CPU becomes available
	computeUS []float64  // per node: accumulated application compute time

	// sends counts messages and payload bytes by message kind
	// (diagnostics; local deliveries included).
	sendMsgs  [256]uint64
	sendBytes [256]uint64

	inbox inboxStore // per-node inbox queues and blocked receivers (inbox.go)

	// arriveFn/readyFn are the two delivery stages, bound once so every
	// message schedules through the kernel's typed-callback events
	// instead of two fresh closures.
	arriveFn func(interface{})
	readyFn  func(interface{})

	// pool recycles pooled messages (the simulation is single-threaded, so
	// a plain free list does what sync.Pool would, without the overhead).
	pool msgPool

	// routeBuf/startBuf are the reusable route buffers of the delivery hot
	// path, sized once from the topology's diameter (no route is longer).
	// route() fully consumes them within one call and the simulation is
	// single-threaded per kernel, so reuse across messages is safe.
	routeBuf []int
	startBuf []sim.Time

	// routes is the topology's route memo, shared with every other network
	// over the same Routes (routes.go); route32Buf is this network's scratch
	// for the routes the memo cannot hold.
	routes     *Routes
	route32Buf []int32

	// ilj journals Inline* charges between InlineBegin and
	// InlineCommit/InlineAbort so a speculative replay can be reverted.
	ilj inlineJournal

	// faults is the lazily-applied fault schedule engine (fault.go); nil
	// on a fault-free network, which then routes on the exact pre-fault
	// code path.
	faults *faultState
	// stats holds the fault counters of a network with a fault schedule or
	// reactive mode, nil on any other: the one set both count into.
	stats *FaultStats

	// react is the reactive-mode transport state (reactive.go); nil in
	// oracle mode, which stays on the exact pre-reactive code path.
	react *reactState
	// reactTimeoutFn is the bound retransmission-timeout callback, so
	// timer scheduling allocates no closures (the arriveFn pattern).
	reactTimeoutFn func(interface{})
}

// inlineJournal records every mutation the Inline* helpers (and routeRaw
// under them) perform, so InlineAbort can restore the exact prior state.
// Old values are replayed in reverse on abort, which makes duplicate
// entries for the same resource harmless; counter deltas are subtracted.
type inlineJournal struct {
	active bool
	cpus   []cpuSave
	busys  []busySave
	loads  []loadSave
	stats  []statSave

	// Fault-engine save: the schedule cursor and counters at InlineBegin,
	// so an aborted replay rewinds lazily-applied fault events too.
	faultCursor int
	faultStats  FaultStats
}

type cpuSave struct {
	node int32
	old  sim.Time
}

type busySave struct {
	link int32
	old  sim.Time
}

type loadSave struct {
	link int32
	size int32
}

type statSave struct {
	kind uint8
	size int32
}

// InlineBegin starts journaling Inline* charges for a speculative replay.
func (nw *Network) InlineBegin() {
	if nw.ilj.active {
		panic("mesh: nested InlineBegin")
	}
	nw.ilj.active = true
	if nw.faults != nil {
		nw.ilj.faultCursor = nw.faults.cursor
		nw.ilj.faultStats = *nw.stats
	}
}

// InlineCommit keeps all charges since InlineBegin and drops the journal.
func (nw *Network) InlineCommit() {
	j := &nw.ilj
	j.active = false
	j.cpus = j.cpus[:0]
	j.busys = j.busys[:0]
	j.loads = j.loads[:0]
	j.stats = j.stats[:0]
}

// InlineAbort reverts every charge since InlineBegin, leaving the network
// state exactly as before the speculative replay.
func (nw *Network) InlineAbort() {
	j := &nw.ilj
	for i := len(j.cpus) - 1; i >= 0; i-- {
		nw.cpuFree[j.cpus[i].node] = j.cpus[i].old
	}
	for i := len(j.busys) - 1; i >= 0; i-- {
		nw.links[j.busys[i].link].busyUntil = j.busys[i].old
	}
	for _, l := range j.loads {
		nw.links[l.link].load.Msgs--
		nw.links[l.link].load.Bytes -= uint64(l.size)
	}
	for _, s := range j.stats {
		nw.sendMsgs[s.kind]--
		nw.sendBytes[s.kind] -= uint64(s.size)
	}
	if nw.faults != nil {
		*nw.stats = j.faultStats
		if nw.faults.cursor != j.faultCursor {
			nw.faults.resetTo(j.faultCursor)
		}
	}
	nw.InlineCommit()
}

// NewNetwork creates a network over topology t using kernel k, with a
// route memo of its own.
func NewNetwork(k *sim.Kernel, t Topology, p Params) *Network {
	return NewNetworkOn(k, NewRoutes(t, RouteBytesMax), p)
}

// RouteBytesMax is the byte limit of a route memo's link chunks (the pair
// table, at most 16 MB, comes on top). A complete 16×16 memo is 3 MB; over
// the repo benchmark's four workloads the largest memo grows to 1.8 MB
// (16×16, all tree specs of the figure cells on it) and the 32×32 one to
// 0.5 MB (PERF.md, PR 18).
const RouteBytesMax = 16 << 20

// NewNetworkOn creates a network over the topology of r, sharing r's route
// memo with every other network created on it.
func NewNetworkOn(k *sim.Kernel, r *Routes, p Params) *Network {
	if p.BytesPerUS <= 0 {
		panic("mesh: BytesPerUS must be positive")
	}
	t := r.t
	nw := &Network{
		K:         k,
		T:         t,
		P:         p,
		links:     make([]link, t.NumLinks()),
		cpuFree:   make([]sim.Time, t.N()),
		computeUS: make([]float64, t.N()),
		inbox:     inboxStore{nodes: make([]nodeInbox, t.N())},
		routeBuf:  make([]int, 0, t.Diameter()+1),
		startBuf:  make([]sim.Time, 0, t.Diameter()+1),
		routes:    r,
	}
	nw.handlers[KindInbox] = nw.deliverInbox
	nw.arriveFn = nw.msgArrive
	nw.readyFn = nw.msgReady
	return nw
}

// msgPool is a free list of pooled messages. A miss carves the message
// from a chunk instead of allocating it alone; chunks double from
// msgChunkMin to msgChunkMax messages, so a short run (a forked query)
// allocates a few small chunks and a long one a chunk per msgChunkMax
// messages in flight.
type msgPool struct {
	free  []*Msg
	chunk []Msg // unused tail of the newest chunk
	grow  int   // length of the newest chunk
}

const (
	msgChunkMin = 8
	msgChunkMax = 256
)

func (p *msgPool) get() *Msg {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	if len(p.chunk) == 0 {
		p.grow = min(max(msgChunkMin, 2*p.grow), msgChunkMax)
		p.chunk = make([]Msg, p.grow)
	}
	m := &p.chunk[0]
	p.chunk = p.chunk[1:]
	m.pooled = true
	return m
}

func (p *msgPool) put(m *Msg) {
	*m = Msg{pooled: true}
	p.free = append(p.free, m)
}

// SendPooled sends a recycled message: protocol hot paths use it to make a
// full send-route-deliver cycle allocation-free.
func (nw *Network) SendPooled(src, dst, size int, kind uint8, payload interface{}) {
	m := nw.pool.get()
	m.Src, m.Dst, m.Size, m.Kind, m.Payload = src, dst, size, kind, payload
	nw.Send(m)
}

// SendPooledTag is SendPooled with a Tag, for protocols that pack their
// per-hop state into the tag instead of allocating a payload.
func (nw *Network) SendPooledTag(src, dst, size int, kind uint8, tag int, payload interface{}) {
	m := nw.pool.get()
	m.Src, m.Dst, m.Size, m.Kind, m.Tag, m.Payload = src, dst, size, kind, tag, payload
	nw.Send(m)
}

// Handle registers the handler for a message kind. Registering kind 0
// (KindInbox) panics; it is reserved for process-level receives.
func (nw *Network) Handle(kind uint8, h Handler) {
	if kind == KindInbox {
		panic("mesh: kind 0 is reserved for the inbox")
	}
	if kind == KindTransportAck && nw.react != nil {
		panic(fmt.Sprintf("mesh: kind %d is reserved for transport acks in reactive mode", KindTransportAck))
	}
	if nw.handlers[kind] != nil {
		panic(fmt.Sprintf("mesh: handler for kind %d registered twice", kind))
	}
	nw.handlers[kind] = h
}

// Send routes m from m.Src to m.Dst, accounting startup cost on the source
// CPU, link occupancy and congestion along the dimension-order path, and
// receive overhead at the destination, then dispatches to the handler for
// m.Kind. Send never blocks; it may be called from event or process
// context. Use SendFrom when the sending process itself should be delayed
// by the startup cost.
func (nw *Network) Send(m *Msg) {
	depart := nw.chargeSend(m.Src)
	nw.deliverAfterRoute(m, depart)
}

// SendFrom is Send for application processes: the calling process is
// blocked until its CPU has finished the send startup, modeling the
// synchronous send call of the message-passing library.
func (nw *Network) SendFrom(p *sim.Proc, m *Msg) {
	depart := nw.chargeSend(m.Src)
	nw.deliverAfterRoute(m, depart)
	p.WaitUntil(depart)
}

// SendInbox is SendFrom of a pooled KindInbox message: the send of the
// hand-optimized message passing programs, received with Recv.
func (nw *Network) SendInbox(p *sim.Proc, src, dst, size, tag int, payload interface{}) {
	m := nw.pool.get()
	m.Src, m.Dst, m.Size, m.Kind, m.Tag, m.Payload = src, dst, size, KindInbox, tag, payload
	nw.SendFrom(p, m)
}

// SendStats reports how many messages (and payload bytes) of each kind
// were sent, including node-local deliveries.
func (nw *Network) SendStats() (msgs, bytes [256]uint64) {
	return nw.sendMsgs, nw.sendBytes
}

// chargeSend reserves the source CPU for the send startup and returns the
// time the message leaves the node.
func (nw *Network) chargeSend(src int) sim.Time {
	t := nw.K.Now()
	if nw.cpuFree[src] > t {
		t = nw.cpuFree[src]
	}
	depart := t + nw.P.StartupSendUS
	nw.cpuFree[src] = depart
	return depart
}

// deliverAfterRoute routes m starting at depart and schedules the arrive
// stage at the arrival time; the arrive stage schedules the ready stage,
// which dispatches. Both are typed events carrying the *Msg itself — no
// closures, no allocations.
func (nw *Network) deliverAfterRoute(m *Msg, depart sim.Time) {
	if nw.react != nil {
		// Reactive mode: stamp the channel sequence, register the
		// outstanding record and schedule the retransmission timer before
		// the delivery below allocates the arrival sequence. No-op for
		// local messages, acks and retransmissions.
		nw.reactOnSend(m, depart)
	}
	nw.sendMsgs[m.Kind]++
	nw.sendBytes[m.Kind] += uint64(m.Size)
	arrive, delivered := nw.routeRawEx(m.Src, m.Dst, m.Size, depart)
	kd := nw.K
	if !delivered {
		// The message vanished at a failure point (reactive mode): no
		// arrival event exists, only the sequence it would have carried is
		// consumed (see SkipSeq).
		kd.SkipSeq()
		if m.pooled {
			nw.pool.put(m)
		}
		return
	}
	kd.Stat.FusedDeliveries++
	kd.AtCall(arrive, nw.arriveFn, m)
}

// msgArrive runs at the arrival time: it charges the receive overhead on
// the destination CPU and schedules the handler dispatch for when that
// overhead is done.
func (nw *Network) msgArrive(x interface{}) {
	m := x.(*Msg)
	k := nw.K
	t := k.Now()
	if f := nw.cpuFree[m.Dst]; f > t {
		// The receiver's CPU is busy at arrival: the receive startup
		// queues behind it.
		t = f
		k.Stat.FusedBusyRecv++
	}
	ready := t + nw.P.StartupRecvUS
	nw.cpuFree[m.Dst] = ready
	k.AtCall(ready, nw.readyFn, m)
}

// msgReady dispatches m to its kind's handler and recycles pooled messages.
// In reactive mode the transport intercepts first: acks retire their
// sender-side records, and duplicate data messages are re-acked and
// dropped without dispatch.
func (nw *Network) msgReady(x interface{}) {
	m := x.(*Msg)
	if nw.react != nil && m.Src != m.Dst {
		if m.Kind == KindTransportAck {
			nw.reactOnAck(m)
			if m.pooled {
				nw.pool.put(m)
			}
			return
		}
		if m.xseq != 0 && !nw.reactAccept(m) {
			if m.pooled {
				nw.pool.put(m)
			}
			return
		}
	}
	h := nw.handlers[m.Kind]
	if h == nil {
		panic(fmt.Sprintf("mesh: no handler for message kind %d", m.Kind))
	}
	h(m)
	if m.pooled {
		nw.pool.put(m)
	}
}

// InlineSendAt models Send issued at simulated time `now` without
// scheduling delivery events: identical charging — send startup on the
// source CPU, send stats, link occupancy and congestion along the route —
// and returns the arrival time at the destination. InlineRecvAt is the
// matching receive side. Together they let a protocol replay a whole
// deterministic message cascade inside one event callback (the batched
// barrier release does this under kernel quiescence); the caller is
// responsible for interleaving the per-message charges in global
// (time, schedule-order) order, exactly as the kernel would have.
func (nw *Network) InlineSendAt(now sim.Time, src, dst, size int, kind uint8) sim.Time {
	t := now
	if nw.cpuFree[src] > t {
		t = nw.cpuFree[src]
	}
	depart := t + nw.P.StartupSendUS
	if nw.ilj.active {
		nw.ilj.cpus = append(nw.ilj.cpus, cpuSave{int32(src), nw.cpuFree[src]})
		nw.ilj.stats = append(nw.ilj.stats, statSave{kind, int32(size)})
	}
	nw.cpuFree[src] = depart
	nw.sendMsgs[kind]++
	nw.sendBytes[kind] += uint64(size)
	return nw.routeRaw(src, dst, size, depart)
}

// InlineRecvAt models the arrival stage (msgArrive) at the destination:
// it charges the receive startup on the destination CPU at the given
// arrival time and returns the time the message handler would have run.
func (nw *Network) InlineRecvAt(dst int, arrive sim.Time) sim.Time {
	t := arrive
	if nw.cpuFree[dst] > t {
		t = nw.cpuFree[dst]
	}
	ready := t + nw.P.StartupRecvUS
	if nw.ilj.active {
		nw.ilj.cpus = append(nw.ilj.cpus, cpuSave{int32(dst), nw.cpuFree[dst]})
	}
	nw.cpuFree[dst] = ready
	return ready
}

// appendRoute32 copies a route into the reusable int32 scratch buffer.
func (nw *Network) appendRoute32(p []int) []int32 {
	nw.route32Buf = nw.route32Buf[:0]
	for _, li := range p {
		nw.route32Buf = append(nw.route32Buf, int32(li))
	}
	return nw.route32Buf
}

// routeRaw is route without the message object: the same charging from
// scalar (src, dst, size), shared by the event-driven delivery path and the
// inline replay helpers. With a fault schedule installed, routing goes
// through the fault engine (fault.go); node-local delivery never touches
// the network and is immune to faults. routeRaw itself is the oracle-mode
// entry: a reactive-mode drop cannot reach it (the delivery paths go
// through routeRawEx, and the inline helpers are gated off under reactive
// mode), so a drop here is a bug.
func (nw *Network) routeRaw(src, dst, size int, depart sim.Time) sim.Time {
	t, delivered := nw.routeRawEx(src, dst, size, depart)
	if !delivered {
		panic("mesh: message dropped on a hold-free routing path")
	}
	return t
}

// routeRawEx is routeRaw with an explicit delivery outcome: delivered is
// false when reactive mode dropped the message at a failure point (the
// arrival time is then meaningless). In oracle mode delivered is always
// true — undeliverable messages are held and retransmitted at heal time
// inside the fault engine instead.
func (nw *Network) routeRawEx(src, dst, size int, depart sim.Time) (arrive sim.Time, delivered bool) {
	if src == dst {
		return depart + nw.P.LocalDeliveryUS, true
	}
	if nw.faults != nil {
		return nw.faults.route(nw, src, dst, size, depart)
	}
	return nw.chargePath(nw.healthyPath(src, dst), size, depart), true
}

// healthyPath returns the topology's deterministic shortest route for
// (src, dst), src != dst. Routes come from the shared memo — AppendRoute's
// coordinate walk runs once per pair and process, not once per message —
// except those the memo cannot hold (machine too large for a pair table,
// byte limit reached), which are walked into the scratch buffer. The
// returned slice is valid until the next healthyPath call (memo entries
// live forever; scratch entries are reused).
func (nw *Network) healthyPath(src, dst int) []int32 {
	if p := nw.routes.get(src, dst); p != nil {
		return p
	}
	walk := nw.T.AppendRoute(nw.routeBuf[:0], src, dst)
	nw.routeBuf = walk[:0] // keep any growth beyond the initial diameter sizing
	if p := nw.routes.publish(src, dst, walk); p != nil {
		return p
	}
	return nw.appendRoute32(walk)
}

// chargePath models wormhole transmission of size bytes along path
// starting at depart: link occupancy, congestion counters, backpressure.
// Returns the arrival time at the path's end.
func (nw *Network) chargePath(path []int32, size int, depart sim.Time) sim.Time {
	dur := float64(size) / nw.P.BytesPerUS
	t := depart
	starts := nw.startBuf[:0]
	journal := nw.ilj.active
	for _, li := range path {
		l := &nw.links[li]
		s := t
		if l.busyUntil > s {
			s = l.busyUntil
		}
		starts = append(starts, s)
		if journal {
			nw.ilj.busys = append(nw.ilj.busys, busySave{int32(li), l.busyUntil})
			nw.ilj.loads = append(nw.ilj.loads, loadSave{int32(li), int32(size)})
		}
		if nw.P.NoBackpressure {
			l.busyUntil = s + dur
		}
		l.load.Msgs++
		l.load.Bytes += uint64(size)
		t = s + nw.P.HopLatencyUS
	}
	arrive := t + dur
	if !nw.P.NoBackpressure {
		// Wormhole flit flow: link i is released when the tail flit has
		// passed it, i.e. when the message has drained far enough
		// downstream — max(own transmission end, drain time minus the
		// pipeline slack to the last link). When nothing blocks, this is
		// barely more than one message duration; when the head stalls
		// downstream, upstream links stay held and congestion spreads
		// toward the sender, as on the real machine.
		for i, li := range path {
			l := &nw.links[li]
			release := arrive - float64(len(path)-1-i)*nw.P.HopLatencyUS
			if own := starts[i] + dur; own > release {
				release = own
			}
			if release > l.busyUntil {
				if journal {
					nw.ilj.busys = append(nw.ilj.busys, busySave{int32(li), l.busyUntil})
				}
				l.busyUntil = release
			}
		}
	}
	// Keep any growth: spanning-tree detours exceed the healthy-net
	// diameter the buffer was initially sized for.
	nw.startBuf = starts[:0]
	return arrive
}

// Compute charges d microseconds of application computation to the process
// p running on node; the process resumes when its CPU has executed it. The
// time is also accumulated for the "local computation time" metric.
func (nw *Network) Compute(p *sim.Proc, node int, d float64) {
	if d <= 0 {
		return
	}
	t := nw.K.Now()
	if nw.cpuFree[node] > t {
		t = nw.cpuFree[node]
	}
	end := t + d
	nw.cpuFree[node] = end
	nw.computeUS[node] += d
	p.WaitUntil(end)
}

// ComputeTime returns the accumulated application compute time per node.
func (nw *Network) ComputeTime() []float64 {
	out := make([]float64, len(nw.computeUS))
	copy(out, nw.computeUS)
	return out
}

// Loads returns a copy of the per-link traffic counters, indexed by LinkID.
func (nw *Network) Loads() []LinkLoad {
	out := make([]LinkLoad, len(nw.links))
	for i := range nw.links {
		out[i] = nw.links[i].load
	}
	return out
}

// Congestion summarizes traffic accumulated since snapshot before (pass nil
// for "since the beginning"): the maximum and total message count and byte
// count over all directed links.
func (nw *Network) Congestion(before []LinkLoad) (c Congestion) {
	for i := range nw.links {
		l := nw.links[i].load
		if before != nil {
			l.Msgs -= before[i].Msgs
			l.Bytes -= before[i].Bytes
		}
		if l.Msgs > c.MaxMsgs {
			c.MaxMsgs = l.Msgs
		}
		if l.Bytes > c.MaxBytes {
			c.MaxBytes = l.Bytes
		}
		c.TotalMsgs += l.Msgs
		c.TotalBytes += l.Bytes
	}
	return c
}

// Congestion is a summary of link traffic. MaxBytes over a run is the
// paper's congestion measure (weighted with the inverse bandwidth, which is
// uniform here); MaxMsgs is the measure used for the Barnes-Hut figures.
type Congestion struct {
	MaxMsgs    uint64
	MaxBytes   uint64
	TotalMsgs  uint64
	TotalBytes uint64
}

// KindInbox is the reserved message kind delivered to per-node inboxes and
// received with Recv (used by the hand-optimized message passing programs).
const KindInbox uint8 = 0
