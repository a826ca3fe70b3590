package mesh

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"diva/internal/sim"
	"diva/internal/xrand"
)

// FaultKind classifies one fault-schedule event.
type FaultKind uint8

const (
	// FaultLinkDown takes down every link between nodes A and B (both
	// directions, all parallel links).
	FaultLinkDown FaultKind = iota
	// FaultLinkUp heals a prior FaultLinkDown on the same pair.
	FaultLinkUp
	// FaultNodeDown takes down node A's network interface: every link
	// incident to A, both directions. The node's CPU and processes keep
	// running — node-local delivery and computation are unaffected —
	// but no message can be routed to or from it (churn, not crash).
	FaultNodeDown
	// FaultNodeUp heals a prior FaultNodeDown on the same node.
	FaultNodeUp
)

func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultNodeDown:
		return "node-down"
	case FaultNodeUp:
		return "node-up"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultEvent is one entry of a fault schedule: at simulated time AtUS the
// links named by (Kind, A, B) change state. B is ignored for node events.
type FaultEvent struct {
	AtUS float64
	Kind FaultKind
	A, B int
}

// FaultSchedule is a deterministic sequence of fault events. Order within
// the slice breaks AtUS ties (the install sort is stable), so a schedule
// is a complete, serializable description of a faulty run.
type FaultSchedule []FaultEvent

// FaultGen describes a randomized fault schedule drawn at machine
// construction from a stream of its own, seeded with the run seed under a
// private salt (never the machine RNG, whose draws it leaves untouched):
// LinkFailures distinct link-pair outages and NodeChurn distinct node
// churns, each starting uniformly in [0, HorizonUS) and lasting
// MeanDownUS·[0.5, 1.5) (uniform — the xrand primitives keep the draw
// portable and replayable). Forks and re-runs of the same seed therefore
// regenerate the identical schedule.
type FaultGen struct {
	LinkFailures int
	NodeChurn    int
	MeanDownUS   float64
	HorizonUS    float64
}

// The default outage length and start window of a drawn schedule: what a
// run description that draws faults without naming them gets, and what
// the fault figures draw with.
const (
	DefaultMeanDownUS = 20000
	DefaultHorizonUS  = 100000
)

// Generate draws the schedule over the topology of r. Link outages pick
// distinct undirected node pairs among its links; churn picks distinct
// processor nodes (switch elements of indirect topologies stay up — fence a
// switch with link faults instead). The result is unsorted; InstallFaults
// sorts.
func (g FaultGen) Generate(r *Routes, rng *xrand.RNG) (FaultSchedule, error) {
	if g.LinkFailures < 0 || g.NodeChurn < 0 {
		return nil, fmt.Errorf("mesh: fault generator counts must be non-negative, have %d link failures, %d node churns", g.LinkFailures, g.NodeChurn)
	}
	if g.LinkFailures == 0 && g.NodeChurn == 0 {
		return nil, nil
	}
	if !(g.MeanDownUS > 0) || !(g.HorizonUS > 0) {
		return nil, fmt.Errorf("mesh: fault generator needs positive mean_down_us and horizon_us, have %g and %g", g.MeanDownUS, g.HorizonUS)
	}
	pairs := r.links().pairs
	if g.LinkFailures > len(pairs) {
		return nil, fmt.Errorf("mesh: %d link failures requested but the topology has only %d link pairs", g.LinkFailures, len(pairs))
	}
	if g.NodeChurn > r.n {
		return nil, fmt.Errorf("mesh: %d node churns requested but the machine has only %d processors", g.NodeChurn, r.n)
	}
	var out FaultSchedule
	outage := func() (start, dur float64) {
		start = rng.Float64() * g.HorizonUS
		dur = g.MeanDownUS * (0.5 + rng.Float64())
		return start, dur
	}
	for _, pi := range rng.Perm(len(pairs))[:g.LinkFailures] {
		p := pairs[pi]
		start, dur := outage()
		out = append(out,
			FaultEvent{AtUS: start, Kind: FaultLinkDown, A: int(p[0]), B: int(p[1])},
			FaultEvent{AtUS: start + dur, Kind: FaultLinkUp, A: int(p[0]), B: int(p[1])})
	}
	for _, node := range rng.Perm(r.n)[:g.NodeChurn] {
		start, dur := outage()
		out = append(out,
			FaultEvent{AtUS: start, Kind: FaultNodeDown, A: node},
			FaultEvent{AtUS: start + dur, Kind: FaultNodeUp, A: node})
	}
	return out, nil
}

// FaultStats counts routing outcomes while a fault schedule is installed.
// The counters implement the degradation vocabulary of the P2P and
// data-grid evaluations: availability is 1 − Held/Routed, re-route path
// stretch is ReroutedHops/BaseHops, and recovery traffic is
// RetryMsgs/RetryBytes (the extra startups and bytes spent retransmitting
// held messages after the partition heals).
type FaultStats struct {
	// Routed counts every cross-node message routed (the denominator of
	// availability).
	Routed uint64
	// Rerouted counts messages whose deterministic shortest path crossed
	// a dead link and that were delivered over the live spanning tree
	// instead; ReroutedHops and BaseHops accumulate the tree-path and
	// shortest-path lengths of exactly those messages.
	Rerouted     uint64
	ReroutedHops uint64
	BaseHops     uint64
	// Held counts messages that could not be delivered at their departure
	// time — source or destination unreachable (network partition or a
	// dead endpoint interface). Each held message waits for the schedule
	// event that reconnects the pair and is then retransmitted, costing a
	// fresh send startup (RetryMsgs/RetryBytes) after HeldUS microseconds
	// of accumulated waiting.
	Held       uint64
	HeldBytes  uint64
	RetryMsgs  uint64
	RetryBytes uint64
	HeldUS     float64

	// Reactive-mode counters (reactive.go); all zero in oracle mode.
	// Dropped counts messages that vanished at a failure point instead of
	// being oracle-held; the transport counters account the recovery
	// traffic (acks, retransmissions, duplicates discarded at receivers,
	// retransmissions the receiver had in fact already seen); the
	// detection counters measure the failure detector: Detected counts
	// give-up declarations (DetectUS the summed latency from first
	// transmission to declaration), Recovered counts suspects later
	// acknowledged again, Failovers counts give-ups redirected to a new
	// destination and Reissues give-ups restarted by a strategy after
	// refreshing its own state.
	Dropped         uint64
	DroppedBytes    uint64
	AckMsgs         uint64
	AckBytes        uint64
	Retransmits     uint64
	RetransmitBytes uint64
	DupDrops        uint64
	FalseTimeouts   uint64
	Detected        uint64
	DetectUS        float64
	Recovered       uint64
	Failovers       uint64
	Reissues        uint64
}

// Sub returns s − b, counter-wise (for phase baselines).
func (s FaultStats) Sub(b FaultStats) FaultStats {
	return FaultStats{
		Routed:          s.Routed - b.Routed,
		Rerouted:        s.Rerouted - b.Rerouted,
		ReroutedHops:    s.ReroutedHops - b.ReroutedHops,
		BaseHops:        s.BaseHops - b.BaseHops,
		Held:            s.Held - b.Held,
		HeldBytes:       s.HeldBytes - b.HeldBytes,
		RetryMsgs:       s.RetryMsgs - b.RetryMsgs,
		RetryBytes:      s.RetryBytes - b.RetryBytes,
		HeldUS:          s.HeldUS - b.HeldUS,
		Dropped:         s.Dropped - b.Dropped,
		DroppedBytes:    s.DroppedBytes - b.DroppedBytes,
		AckMsgs:         s.AckMsgs - b.AckMsgs,
		AckBytes:        s.AckBytes - b.AckBytes,
		Retransmits:     s.Retransmits - b.Retransmits,
		RetransmitBytes: s.RetransmitBytes - b.RetransmitBytes,
		DupDrops:        s.DupDrops - b.DupDrops,
		FalseTimeouts:   s.FalseTimeouts - b.FalseTimeouts,
		Detected:        s.Detected - b.Detected,
		DetectUS:        s.DetectUS - b.DetectUS,
		Recovered:       s.Recovered - b.Recovered,
		Failovers:       s.Failovers - b.Failovers,
		Reissues:        s.Reissues - b.Reissues,
	}
}

// DetectLatencyUS is the mean failure-detection latency: time from a
// message's first transmission to its sender declaring the destination
// suspect (0 when nothing was detected).
func (s FaultStats) DetectLatencyUS() float64 {
	if s.Detected == 0 {
		return 0
	}
	return s.DetectUS / float64(s.Detected)
}

// Availability is the fraction of routed messages that were deliverable at
// departure: 1 − (Held+Dropped)/Routed (1 when nothing was routed). Held
// counts oracle-mode holds, Dropped reactive-mode losses; at most one of
// the two is ever nonzero.
func (s FaultStats) Availability() float64 {
	if s.Routed == 0 {
		return 1
	}
	return 1 - float64(s.Held+s.Dropped)/float64(s.Routed)
}

// Stretch is the mean path stretch of re-routed messages:
// ReroutedHops/BaseHops (1 when nothing was re-routed).
func (s FaultStats) Stretch() float64 {
	if s.BaseHops == 0 {
		return 1
	}
	return float64(s.ReroutedHops) / float64(s.BaseHops)
}

// faultState is the link-fault engine of a Network. Faults are applied
// lazily: no kernel events exist for them. Every routing decision first
// advances the schedule cursor to the message's departure time, and
// messages are routed in the kernel's (time, seq) send order, so the
// cursor advances through the same interleaving on every run. That is
// what keeps faulty runs fingerprint-stable across fork/restore and lets
// quiescent machines snapshot mid-schedule with nothing in flight.
type faultState struct {
	sched  FaultSchedule // normalized
	cursor int           // next schedule entry to apply
	links  *adjacency    // the topology's, shared

	linkState           // at the cursor
	replay    linkState // healTime's scratch

	// Live spanning forest, rebuilt lazily after any state change: per
	// component (root = lowest live node id) a BFS tree with Yggdrasil-
	// style parent preference — among equal-depth candidates the parent
	// with the higher live degree wins, ties to the lower id — so trees
	// hang off well-connected hubs and survive further failures with
	// fewer reassignments.
	treeDirty bool
	parent    []int32
	depth     []int32
	comp      []int32 // component root, -1 for down nodes
	upLink    []int32 // node -> live link to parent (-1 at roots)
	dnLink    []int32 // node -> live link from parent
	liveDeg   []int32

	// Scratch (persistent, grown on demand).
	walker
	upBuf []int32
	dnBuf []int32
}

// linkState is the link state a prefix of a fault schedule leaves. down
// counts, per directed link, how many active faults cover it (a link
// outage on its pair, a churn on either endpoint): a link is live iff its
// count is zero, so overlapping node and link faults compose without
// special cases.
type linkState struct {
	down      []int32
	nodeDown  []bool
	nDown     int // directed links with down > 0
	nodesDown int
}

// apply transitions the link state for one event.
func (s *linkState) apply(a *adjacency, ev FaultEvent) {
	d := int32(1)
	if ev.Kind == FaultLinkUp || ev.Kind == FaultNodeUp {
		d = -1
	}
	switch ev.Kind {
	case FaultLinkDown, FaultLinkUp:
		for _, h := range a.pairLinks(ev.A, ev.B) {
			s.bump(h.link, d)
		}
		for _, h := range a.pairLinks(ev.B, ev.A) {
			s.bump(h.link, d)
		}
	case FaultNodeDown, FaultNodeUp:
		s.nodeDown[ev.A] = d > 0
		s.nodesDown += int(d)
		for _, li := range a.incident[ev.A] {
			s.bump(li, d)
		}
	}
}

func (s *linkState) bump(li, d int32) {
	was := s.down[li]
	s.down[li] = was + d
	if was == 0 && d > 0 {
		s.nDown++
	} else if was+d == 0 && d < 0 {
		s.nDown--
	}
}

func (s *linkState) anyDown() bool { return s.nDown > 0 || s.nodesDown > 0 }

// InstallFaults installs a fault schedule on the network: a normalized copy
// is kept and applied lazily as routing reaches each event's time. The
// schedule must be well-formed — valid endpoints, every up healing an
// active outage, and every outage healed by a matching up event — so that
// any held message has a heal time to wait for. Installing an empty
// schedule is a no-op: the network stays on the exact fault-free routing
// path, bit-identical to a network that never saw this call.
func (nw *Network) InstallFaults(s FaultSchedule) error {
	if len(s) == 0 {
		return nil
	}
	if nw.faults != nil {
		return fmt.Errorf("mesh: fault schedule already installed")
	}
	a := nw.routes.links()
	sched, err := s.normalize(a)
	if err != nil {
		return err
	}
	n := a.nodes()
	nw.faults = &faultState{
		sched:     sched,
		links:     a,
		linkState: linkState{down: make([]int32, nw.T.NumLinks()), nodeDown: make([]bool, n)},
		replay:    linkState{down: make([]int32, nw.T.NumLinks()), nodeDown: make([]bool, n)},
		treeDirty: true,
		parent:    make([]int32, n),
		depth:     make([]int32, n),
		comp:      make([]int32, n),
		upLink:    make([]int32, n),
		dnLink:    make([]int32, n),
		liveDeg:   make([]int32, n),
		walker:    walker{seen: make([]bool, n)},
	}
	nw.countFaults()
	return nil
}

// normalize returns the schedule to install: sorted by AtUS (declaration
// order among equal times), with overlapping outage windows on the same
// link pair or node merged into their union — a depth count per target
// keeps only its 0→1 down and 1→0 up — so composed schedules (explicit
// events plus a drawn one, or a draw whose windows overlap) install. It
// fails on an event at a time that is not finite and non-negative, on
// endpoints that do not exist or share no link, on an up with no outage to
// heal, and on an outage the schedule never heals.
func (s FaultSchedule) normalize(a *adjacency) (FaultSchedule, error) {
	for i, ev := range s {
		if !(ev.AtUS >= 0) || math.IsInf(ev.AtUS, 0) {
			return nil, fmt.Errorf("mesh: fault event %d: at_us must be finite and non-negative, have %g", i, ev.AtUS)
		}
	}
	out := slices.Clone(s)
	slices.SortStableFunc(out, func(x, y FaultEvent) int { return cmp.Compare(x.AtUS, y.AtUS) })
	n := a.nodes()
	pairDepth := make([]int32, len(a.pairs))
	nodeDepth := make([]int32, n)
	kept := out[:0]
	for i, ev := range out {
		var depth *int32
		switch ev.Kind {
		case FaultLinkDown, FaultLinkUp:
			lo, hi := min(ev.A, ev.B), max(ev.A, ev.B)
			if lo < 0 || hi >= n || lo == hi {
				return nil, fmt.Errorf("mesh: fault event %d: no such node pair (%d,%d)", i, ev.A, ev.B)
			}
			p, ok := a.pair(lo, hi)
			if !ok {
				return nil, fmt.Errorf("mesh: fault event %d: nodes %d and %d share no link", i, ev.A, ev.B)
			}
			depth = &pairDepth[p]
		case FaultNodeDown, FaultNodeUp:
			if ev.A < 0 || ev.A >= n {
				return nil, fmt.Errorf("mesh: fault event %d: no such node %d", i, ev.A)
			}
			depth = &nodeDepth[ev.A]
		default:
			return nil, fmt.Errorf("mesh: fault event %d: unknown kind %d", i, ev.Kind)
		}
		if ev.Kind == FaultLinkDown || ev.Kind == FaultNodeDown {
			if *depth++; *depth > 1 {
				continue
			}
		} else {
			if *depth == 0 {
				return nil, fmt.Errorf("mesh: fault event %d: %v on %v while already in that state", i, ev.Kind, ev.target())
			}
			if *depth--; *depth > 0 {
				continue
			}
		}
		kept = append(kept, ev)
	}
	for p, d := range pairDepth {
		if d > 0 {
			return nil, fmt.Errorf("mesh: link pair (%d,%d) is never healed — every outage needs a matching up event", a.pairs[p][0], a.pairs[p][1])
		}
	}
	for u, d := range nodeDepth {
		if d > 0 {
			return nil, fmt.Errorf("mesh: node %d is never healed — every churn needs a matching up event", u)
		}
	}
	return kept, nil
}

// target names what ev takes down or heals.
func (ev FaultEvent) target() string {
	if ev.Kind == FaultNodeDown || ev.Kind == FaultNodeUp {
		return fmt.Sprintf("node %d", ev.A)
	}
	return fmt.Sprintf("pair (%d,%d)", min(ev.A, ev.B), max(ev.A, ev.B))
}

// FaultSchedule returns a copy of the installed schedule in applied
// (sorted) order, or nil when the network is fault-free. Declaring the
// returned schedule explicitly on a fresh machine reproduces this run.
func (nw *Network) FaultSchedule() FaultSchedule {
	if nw.faults == nil {
		return nil
	}
	return slices.Clone(nw.faults.sched)
}

// countFaults gives the network its fault counters, once: a fault schedule
// and reactive mode count into the same set.
func (nw *Network) countFaults() {
	if nw.stats == nil {
		nw.stats = new(FaultStats)
	}
}

// FaultStats returns the accumulated fault counters: routing outcomes
// under a fault schedule and, in reactive mode, the transport's. Zero when
// neither a schedule nor reactive mode is installed.
func (nw *Network) FaultStats() FaultStats {
	if nw.stats == nil {
		return FaultStats{}
	}
	return *nw.stats
}

// sync applies every schedule event at or before t. Cursor movement is
// monotonic; the routing order makes it deterministic.
func (fs *faultState) sync(t sim.Time) {
	for fs.cursor < len(fs.sched) && fs.sched[fs.cursor].AtUS <= t {
		fs.apply(fs.links, fs.sched[fs.cursor])
		fs.cursor++
		fs.treeDirty = true
	}
}

// liveAll reports whether every link of the path is up. Links incident to
// a churned node carry its down count, so dead intermediate hops (e.g. a
// fenced switch) fail this check without a separate node walk.
func (fs *faultState) liveAll(path []int32) bool {
	for _, li := range path {
		if fs.down[li] != 0 {
			return false
		}
	}
	return true
}

// rebuildTree recomputes the live spanning forest.
func (fs *faultState) rebuildTree() {
	n := fs.links.nodes()
	for u := 0; u < n; u++ {
		fs.liveDeg[u] = 0
		fs.comp[u] = -1
		fs.upLink[u] = -1
		fs.dnLink[u] = -1
	}
	for u := 0; u < n; u++ {
		if fs.nodeDown[u] {
			continue
		}
		for _, h := range fs.links.rows[u] {
			if fs.down[h.link] == 0 {
				fs.liveDeg[u]++
			}
		}
	}
	for root := 0; root < n; root++ {
		if fs.nodeDown[root] || fs.comp[root] != -1 {
			continue
		}
		fs.comp[root] = int32(root)
		fs.depth[root] = 0
		fs.parent[root] = -1
		fs.queue = append(fs.queue[:0], int32(root))
		for qi := 0; qi < len(fs.queue); qi++ {
			u := int(fs.queue[qi])
			for _, h := range fs.links.rows[u] {
				if fs.down[h.link] != 0 {
					continue
				}
				v := int(h.to)
				if fs.comp[v] == -1 {
					fs.comp[v] = int32(root)
					fs.depth[v] = fs.depth[u] + 1
					fs.parent[v] = int32(u)
					fs.queue = append(fs.queue, h.to)
				} else if fs.depth[v] == fs.depth[u]+1 && int(fs.parent[v]) != u {
					// Equal-depth candidate parent: prefer the better-
					// connected one (then the lower id). v is still on the
					// frontier — every depth-d node is processed before any
					// depth-d+1 node — so reassigning its parent is safe
					// and the choice is order-independent.
					p := int(fs.parent[v])
					if fs.liveDeg[u] > fs.liveDeg[p] || (fs.liveDeg[u] == fs.liveDeg[p] && u < p) {
						fs.parent[v] = int32(u)
					}
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		if fs.comp[u] == -1 || fs.parent[u] == -1 {
			continue
		}
		p := int(fs.parent[u])
		fs.upLink[u] = fs.lowestLive(u, p)
		fs.dnLink[u] = fs.lowestLive(p, u)
	}
	fs.treeDirty = false
}

// lowestLive returns the lowest live directed link from a to b (-1 when
// none; unreachable for tree edges, which were discovered over live links).
func (fs *faultState) lowestLive(a, b int) int32 {
	for _, h := range fs.links.pairLinks(a, b) {
		if fs.down[h.link] == 0 {
			return h.link
		}
	}
	return -1
}

// treePath builds the spanning-tree route from src to dst (same
// component): up-links to the lowest common ancestor, then the reversed
// chain of down-links to dst. The buffers persist and grow on demand —
// tree detours routinely exceed the healthy-net diameter.
func (fs *faultState) treePath(src, dst int) []int32 {
	up := fs.upBuf[:0]
	dn := fs.dnBuf[:0]
	u, v := int32(src), int32(dst)
	for fs.depth[u] > fs.depth[v] {
		up = append(up, fs.upLink[u])
		u = fs.parent[u]
	}
	for fs.depth[v] > fs.depth[u] {
		dn = append(dn, fs.dnLink[v])
		v = fs.parent[v]
	}
	for u != v {
		up = append(up, fs.upLink[u])
		u = fs.parent[u]
		dn = append(dn, fs.dnLink[v])
		v = fs.parent[v]
	}
	for i := len(dn) - 1; i >= 0; i-- {
		up = append(up, dn[i])
	}
	fs.upBuf = up[:0]
	fs.dnBuf = dn[:0]
	return up[:len(up):len(up)]
}

// healTime returns the schedule time after which src and dst are
// connected with both interfaces up, by replaying the remaining events on
// a copy of the link state. Normalization guarantees the schedule ends
// fully healed and every topology is connected, so the walk terminates.
func (fs *faultState) healTime(src, dst int) sim.Time {
	s := &fs.replay
	copy(s.down, fs.down)
	copy(s.nodeDown, fs.nodeDown)
	s.nDown, s.nodesDown = fs.nDown, fs.nodesDown
	for _, ev := range fs.sched[fs.cursor:] {
		s.apply(fs.links, ev)
		if s.nodeDown[src] || s.nodeDown[dst] {
			continue
		}
		clear(fs.seen)
		if fs.reach(fs.links, s.down, src, dst); fs.seen[dst] {
			return ev.AtUS
		}
	}
	// Unreachable: the schedule ends healed and the topology is connected.
	panic(fmt.Sprintf("mesh: nodes %d and %d never reconnect under the installed schedule", src, dst))
}

// route is routeRaw under an installed fault schedule: advance the
// schedule to the departure time, then deliver over the shortest path if
// it is fully live, over the live spanning tree if src and dst are still
// connected — and otherwise hold the message until the schedule reconnects
// them and retransmit (oracle mode), or drop it at the failure point
// (reactive mode: delivered=false, the ack/retransmit transport recovers).
// In-flight liveness is sampled at departure: a message that left on a
// live path is not recalled by a later failure (circuit already
// established — the wormhole charges model the path as held for the
// transmission anyway).
func (fs *faultState) route(nw *Network, src, dst, size int, depart sim.Time) (sim.Time, bool) {
	fs.sync(depart)
	st := nw.stats
	st.Routed++
	if !fs.anyDown() {
		return nw.chargePath(nw.healthyPath(src, dst), size, depart), true
	}
	if !fs.nodeDown[src] && !fs.nodeDown[dst] {
		path := nw.healthyPath(src, dst)
		if fs.liveAll(path) {
			return nw.chargePath(path, size, depart), true
		}
		if fs.treeDirty {
			fs.rebuildTree()
		}
		if fs.comp[src] == fs.comp[dst] {
			base := uint64(len(path))
			p := fs.treePath(src, dst)
			st.Rerouted++
			st.ReroutedHops += uint64(len(p))
			st.BaseHops += base
			return nw.chargePath(p, size, depart), true
		}
	}
	if nw.react != nil {
		// Reactive mode: the message vanishes at the failure point —
		// no event, no link charges, no oracle knowledge. The sender's
		// retransmission timer is the only recovery.
		st.Dropped++
		st.DroppedBytes += uint64(size)
		return 0, false
	}
	healT := fs.healTime(src, dst)
	st.Held++
	st.HeldBytes += uint64(size)
	// The retransmission departs one send startup after the heal: the held
	// message sits in the source's network interface and the retry startup
	// is interface work, not CPU work, so it is independent of nw.cpuFree.
	// healT > depart (sync already applied every event at or before
	// depart), so the charge is a pure function of the departure time.
	depart2 := healT + nw.P.StartupSendUS
	st.RetryMsgs++
	st.RetryBytes += uint64(size)
	st.HeldUS += depart2 - depart
	// Recurse: sync(depart2) applies at least the healing event, so the
	// cursor strictly advances and the retransmission terminates.
	return fs.route(nw, src, dst, size, depart2)
}

// resetTo rewinds the engine to schedule position cursor by replaying the
// prefix from scratch (snapshot restore, inline-replay abort).
func (fs *faultState) resetTo(cursor int) {
	clear(fs.down)
	clear(fs.nodeDown)
	fs.nDown, fs.nodesDown = 0, 0
	for fs.cursor = 0; fs.cursor < cursor; fs.cursor++ {
		fs.apply(fs.links, fs.sched[fs.cursor])
	}
	fs.treeDirty = true
}
