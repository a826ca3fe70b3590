package mesh

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

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

// normalized returns a sorted copy: ascending AtUS, declaration order
// preserved among equal times.
func (s FaultSchedule) normalized() FaultSchedule {
	out := make(FaultSchedule, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtUS < out[j].AtUS })
	return out
}

// FaultGen describes a randomized fault schedule to be drawn from the
// machine RNG at construction: LinkFailures distinct link-pair outages and
// NodeChurn distinct node churns, each starting uniformly in
// [0, HorizonUS) and lasting MeanDownUS·[0.5, 1.5) (uniform — the machine
// RNG's primitives keep the draw portable and replayable). Because the
// draw happens at a fixed point of machine construction, forks and
// re-runs of the same seed regenerate the identical schedule.
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

// Generate draws the schedule over topology t. Link outages pick distinct
// undirected node pairs among t's links; churn picks distinct processor
// nodes (switch elements of indirect topologies stay up — fence a switch
// with link faults instead). The result is unsorted; InstallFaults sorts.
func (g FaultGen) Generate(t Topology, rng *xrand.RNG) (FaultSchedule, error) {
	if g.LinkFailures < 0 || g.NodeChurn < 0 {
		return nil, fmt.Errorf("mesh: fault generator counts must be non-negative, have %d link failures, %d node churns", g.LinkFailures, g.NodeChurn)
	}
	if g.LinkFailures == 0 && g.NodeChurn == 0 {
		return nil, nil
	}
	if !(g.MeanDownUS > 0) || !(g.HorizonUS > 0) {
		return nil, fmt.Errorf("mesh: fault generator needs positive mean_down_us and horizon_us, have %g and %g", g.MeanDownUS, g.HorizonUS)
	}
	pairSet := make(map[[2]int]bool)
	t.ForEachLink(func(_, from, to int) {
		a, b := from, to
		if a > b {
			a, b = b, a
		}
		pairSet[[2]int{a, b}] = true
	})
	pairs := make([][2]int, 0, len(pairSet))
	for p := range pairSet {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	if g.LinkFailures > len(pairs) {
		return nil, fmt.Errorf("mesh: %d link failures requested but the topology has only %d link pairs", g.LinkFailures, len(pairs))
	}
	if g.NodeChurn > t.N() {
		return nil, fmt.Errorf("mesh: %d node churns requested but the machine has only %d processors", g.NodeChurn, t.N())
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
			FaultEvent{AtUS: start, Kind: FaultLinkDown, A: p[0], B: p[1]},
			FaultEvent{AtUS: start + dur, Kind: FaultLinkUp, A: p[0], B: p[1]})
	}
	for _, node := range rng.Perm(t.N())[:g.NodeChurn] {
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
	// acknowledged again (RecoverUS the summed suspicion time), Failovers
	// counts give-ups redirected to a new destination and Reissues
	// give-ups restarted by a strategy after refreshing its own state.
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
	RecoverUS       float64
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
		RecoverUS:       s.RecoverUS - b.RecoverUS,
		Failovers:       s.Failovers - b.Failovers,
		Reissues:        s.Reissues - b.Reissues,
	}
}

// add returns s + b, counter-wise (FaultStats aggregates the per-node
// transport counters of reactive mode).
func (s FaultStats) add(b FaultStats) FaultStats {
	return FaultStats{
		Routed:          s.Routed + b.Routed,
		Rerouted:        s.Rerouted + b.Rerouted,
		ReroutedHops:    s.ReroutedHops + b.ReroutedHops,
		BaseHops:        s.BaseHops + b.BaseHops,
		Held:            s.Held + b.Held,
		HeldBytes:       s.HeldBytes + b.HeldBytes,
		RetryMsgs:       s.RetryMsgs + b.RetryMsgs,
		RetryBytes:      s.RetryBytes + b.RetryBytes,
		HeldUS:          s.HeldUS + b.HeldUS,
		Dropped:         s.Dropped + b.Dropped,
		DroppedBytes:    s.DroppedBytes + b.DroppedBytes,
		AckMsgs:         s.AckMsgs + b.AckMsgs,
		AckBytes:        s.AckBytes + b.AckBytes,
		Retransmits:     s.Retransmits + b.Retransmits,
		RetransmitBytes: s.RetransmitBytes + b.RetransmitBytes,
		DupDrops:        s.DupDrops + b.DupDrops,
		FalseTimeouts:   s.FalseTimeouts + b.FalseTimeouts,
		Detected:        s.Detected + b.Detected,
		DetectUS:        s.DetectUS + b.DetectUS,
		Recovered:       s.Recovered + b.Recovered,
		RecoverUS:       s.RecoverUS + b.RecoverUS,
		Failovers:       s.Failovers + b.Failovers,
		Reissues:        s.Reissues + b.Reissues,
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

// RecoveryUS is the mean time-to-recovery: how long a suspect destination
// stayed suspect before an ack from it arrived again (0 when nothing
// recovered).
func (s FaultStats) RecoveryUS() float64 {
	if s.Recovered == 0 {
		return 0
	}
	return s.RecoverUS / float64(s.Recovered)
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
	sched  FaultSchedule // normalized + validated
	cursor int           // next schedule entry to apply

	nNodes    int
	adjOut    [][]graphHalf // node -> outgoing (to, link), sorted by (to, link)
	nodeLinks [][]int32     // node -> incident directed links, both directions

	// downCount counts, per directed link, how many active faults cover
	// it (a link outage on its pair, a churn on either endpoint). A link
	// is live iff its count is zero, so overlapping node and link faults
	// compose without special cases.
	downCount []int32
	nodeDown  []bool
	nDown     int // directed links with downCount > 0
	nodesDown int

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

	stats FaultStats

	// Scratch buffers (persistent, grown on demand).
	queue       []int32
	upBuf       []int32
	dnBuf       []int32
	seen        []bool
	scratchDown []int32
	scratchNode []bool
}

// InstallFaults installs a fault schedule on the network: a sorted copy is
// kept and applied lazily as routing reaches each event's time. The
// schedule must be well-formed — valid endpoints, down/up alternation per
// link pair and per node, and every outage healed by a matching up event —
// so that any held message has a heal time to wait for. Installing an
// empty schedule is a no-op: the network stays on the exact fault-free
// routing path, bit-identical to a network that never saw this call.
func (nw *Network) InstallFaults(s FaultSchedule) error {
	if len(s) == 0 {
		return nil
	}
	if nw.faults != nil {
		return fmt.Errorf("mesh: fault schedule already installed")
	}
	n := nw.T.Nodes()
	fs := &faultState{nNodes: n, treeDirty: true}
	fs.downCount = make([]int32, nw.T.NumLinks())
	// Count each node's links, then fill flat slices carved per node with
	// exactly that capacity: no per-node slice grows.
	outDeg := make([]int32, n)
	incDeg := make([]int32, n)
	total := 0
	nw.T.ForEachLink(func(_, from, to int) {
		outDeg[from]++
		incDeg[from]++
		incDeg[to]++
		total++
	})
	halves := make([]graphHalf, total)
	incident := make([]int32, 2*total)
	fs.adjOut = make([][]graphHalf, n)
	fs.nodeLinks = make([][]int32, n)
	for u := range n {
		fs.adjOut[u], halves = halves[:0:outDeg[u]], halves[outDeg[u]:]
		fs.nodeLinks[u], incident = incident[:0:incDeg[u]], incident[incDeg[u]:]
	}
	nw.T.ForEachLink(func(link, from, to int) {
		fs.adjOut[from] = append(fs.adjOut[from], graphHalf{to: int32(to), link: int32(link)})
		fs.nodeLinks[from] = append(fs.nodeLinks[from], int32(link))
		fs.nodeLinks[to] = append(fs.nodeLinks[to], int32(link))
	})
	for _, a := range fs.adjOut {
		slices.SortFunc(a, func(x, y graphHalf) int {
			return cmp.Or(cmp.Compare(x.to, y.to), cmp.Compare(x.link, y.link))
		})
	}
	fs.nodeDown = make([]bool, fs.nNodes)
	fs.parent = make([]int32, fs.nNodes)
	fs.depth = make([]int32, fs.nNodes)
	fs.comp = make([]int32, fs.nNodes)
	fs.upLink = make([]int32, fs.nNodes)
	fs.dnLink = make([]int32, fs.nNodes)
	fs.liveDeg = make([]int32, fs.nNodes)
	fs.sched = mergeOverlaps(s.normalized())
	if err := fs.validate(); err != nil {
		return err
	}
	nw.faults = fs
	return nil
}

// mergeOverlaps coalesces overlapping outage windows on the same link pair
// or node into their union: a depth counter per target keeps only the
// 0→1 down and the 1→0 up transitions. Composed schedules — explicit
// events plus a drawn fault.Gen schedule, or a generator whose windows
// happen to overlap — would otherwise fail validation with a spurious
// "already in that state" error. The transform is the identity for any
// schedule that already alternates correctly, so every existing run is
// bit-identical; genuinely malformed schedules (an up with no active down,
// a down never healed) still reach validate untouched and error there.
func mergeOverlaps(s FaultSchedule) FaultSchedule {
	pairDepth := make(map[[2]int]int)
	nodeDepth := make(map[int]int)
	out := make(FaultSchedule, 0, len(s))
	for _, ev := range s {
		keep := true
		switch ev.Kind {
		case FaultLinkDown, FaultLinkUp:
			a, b := ev.A, ev.B
			if a > b {
				a, b = b, a
			}
			p := [2]int{a, b}
			if ev.Kind == FaultLinkDown {
				keep = pairDepth[p] == 0
				pairDepth[p]++
			} else if pairDepth[p] > 0 {
				pairDepth[p]--
				keep = pairDepth[p] == 0
			}
		case FaultNodeDown, FaultNodeUp:
			if ev.Kind == FaultNodeDown {
				keep = nodeDepth[ev.A] == 0
				nodeDepth[ev.A]++
			} else if nodeDepth[ev.A] > 0 {
				nodeDepth[ev.A]--
				keep = nodeDepth[ev.A] == 0
			}
		}
		if keep {
			out = append(out, ev)
		}
	}
	return out
}

// FaultSchedule returns a copy of the installed schedule in applied
// (sorted) order, or nil when the network is fault-free. Declaring the
// returned schedule explicitly on a fresh machine reproduces this run.
func (nw *Network) FaultSchedule() FaultSchedule {
	if nw.faults == nil {
		return nil
	}
	out := make(FaultSchedule, len(nw.faults.sched))
	copy(out, nw.faults.sched)
	return out
}

// FaultStats returns the accumulated fault counters: the routing-order
// engine counters plus, in reactive mode, the per-node transport counters
// and a restored snapshot's baseline. Zero when neither a schedule nor
// reactive mode is installed.
func (nw *Network) FaultStats() FaultStats {
	var st FaultStats
	if nw.faults != nil {
		st = nw.faults.stats
	}
	if r := nw.react; r != nil {
		st = st.add(r.base)
		for i := range r.nodes {
			st = st.add(r.nodes[i].stats)
		}
	}
	return st
}

// validate checks the normalized schedule: endpoints exist, downs and ups
// alternate per pair and per node, and everything is healed at the end.
func (fs *faultState) validate() error {
	pairDown := make(map[[2]int]bool)
	nodeDown := make(map[int]bool)
	for i, ev := range fs.sched {
		if !(ev.AtUS >= 0) || math.IsInf(ev.AtUS, 0) {
			return fmt.Errorf("mesh: fault event %d: at_us must be finite and non-negative, have %g", i, ev.AtUS)
		}
		switch ev.Kind {
		case FaultLinkDown, FaultLinkUp:
			a, b := ev.A, ev.B
			if a > b {
				a, b = b, a
			}
			if a < 0 || b >= fs.nNodes || a == b {
				return fmt.Errorf("mesh: fault event %d: no such node pair (%d,%d)", i, ev.A, ev.B)
			}
			if len(fs.pairLinks(a, b))+len(fs.pairLinks(b, a)) == 0 {
				return fmt.Errorf("mesh: fault event %d: nodes %d and %d share no link", i, ev.A, ev.B)
			}
			p := [2]int{a, b}
			if down := ev.Kind == FaultLinkDown; down == pairDown[p] {
				return fmt.Errorf("mesh: fault event %d: %v on pair (%d,%d) while already in that state", i, ev.Kind, a, b)
			}
			pairDown[p] = ev.Kind == FaultLinkDown
		case FaultNodeDown, FaultNodeUp:
			if ev.A < 0 || ev.A >= fs.nNodes {
				return fmt.Errorf("mesh: fault event %d: no such node %d", i, ev.A)
			}
			if down := ev.Kind == FaultNodeDown; down == nodeDown[ev.A] {
				return fmt.Errorf("mesh: fault event %d: %v on node %d while already in that state", i, ev.Kind, ev.A)
			}
			nodeDown[ev.A] = ev.Kind == FaultNodeDown
		default:
			return fmt.Errorf("mesh: fault event %d: unknown kind %d", i, ev.Kind)
		}
	}
	for p, down := range pairDown {
		if down {
			return fmt.Errorf("mesh: link pair (%d,%d) is never healed — every outage needs a matching up event", p[0], p[1])
		}
	}
	for n, down := range nodeDown {
		if down {
			return fmt.Errorf("mesh: node %d is never healed — every churn needs a matching up event", n)
		}
	}
	return nil
}

// sync applies every schedule event at or before t. Cursor movement is
// monotonic; the routing order makes it deterministic.
func (fs *faultState) sync(t sim.Time) {
	for fs.cursor < len(fs.sched) && fs.sched[fs.cursor].AtUS <= t {
		fs.apply(fs.sched[fs.cursor])
		fs.cursor++
	}
}

// apply transitions the link state for one event.
func (fs *faultState) apply(ev FaultEvent) {
	switch ev.Kind {
	case FaultLinkDown:
		fs.bumpPair(ev.A, ev.B, 1)
	case FaultLinkUp:
		fs.bumpPair(ev.A, ev.B, -1)
	case FaultNodeDown:
		fs.nodeDown[ev.A] = true
		fs.nodesDown++
		fs.bumpLinks(fs.nodeLinks[ev.A], 1)
	case FaultNodeUp:
		fs.nodeDown[ev.A] = false
		fs.nodesDown--
		fs.bumpLinks(fs.nodeLinks[ev.A], -1)
	}
	fs.treeDirty = true
}

// pairLinks returns the directed links from a to b, ascending: a run of
// a's sorted adjacency.
func (fs *faultState) pairLinks(a, b int) []graphHalf {
	adj := fs.adjOut[a]
	i, _ := slices.BinarySearchFunc(adj, int32(b), func(h graphHalf, to int32) int { return cmp.Compare(h.to, to) })
	j := i
	for j < len(adj) && adj[j].to == int32(b) {
		j++
	}
	return adj[i:j]
}

func (fs *faultState) bumpPair(a, b int, d int32) {
	for _, h := range fs.pairLinks(a, b) {
		fs.bump(h.link, d)
	}
	for _, h := range fs.pairLinks(b, a) {
		fs.bump(h.link, d)
	}
}

func (fs *faultState) bumpLinks(links []int32, d int32) {
	for _, li := range links {
		fs.bump(li, d)
	}
}

func (fs *faultState) bump(li, d int32) {
	was := fs.downCount[li]
	fs.downCount[li] = was + d
	if was == 0 && d > 0 {
		fs.nDown++
	} else if was+d == 0 && d < 0 {
		fs.nDown--
	}
}

func (fs *faultState) anyDown() bool { return fs.nDown > 0 || fs.nodesDown > 0 }

// liveAll reports whether every link of the path is up. Links incident to
// a churned node carry its down count, so dead intermediate hops (e.g. a
// fenced switch) fail this check without a separate node walk.
func (fs *faultState) liveAll(path []int32) bool {
	for _, li := range path {
		if fs.downCount[li] != 0 {
			return false
		}
	}
	return true
}

// rebuildTree recomputes the live spanning forest.
func (fs *faultState) rebuildTree() {
	n := fs.nNodes
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
		for _, h := range fs.adjOut[u] {
			if fs.downCount[h.link] == 0 {
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
			for _, h := range fs.adjOut[u] {
				if fs.downCount[h.link] != 0 {
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
	for _, h := range fs.pairLinks(a, b) {
		if fs.downCount[h.link] == 0 {
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
// scratch state. Validation guarantees the schedule ends fully healed and
// every topology is connected, so the walk terminates.
func (fs *faultState) healTime(src, dst int) sim.Time {
	if cap(fs.scratchDown) < len(fs.downCount) {
		fs.scratchDown = make([]int32, len(fs.downCount))
		fs.scratchNode = make([]bool, fs.nNodes)
	}
	down := fs.scratchDown[:len(fs.downCount)]
	node := fs.scratchNode[:fs.nNodes]
	copy(down, fs.downCount)
	copy(node, fs.nodeDown)
	for k := fs.cursor; k < len(fs.sched); k++ {
		ev := fs.sched[k]
		d := int32(1)
		switch ev.Kind {
		case FaultLinkDown, FaultLinkUp:
			if ev.Kind == FaultLinkUp {
				d = -1
			}
			for _, h := range fs.pairLinks(ev.A, ev.B) {
				down[h.link] += d
			}
			for _, h := range fs.pairLinks(ev.B, ev.A) {
				down[h.link] += d
			}
		case FaultNodeDown, FaultNodeUp:
			if ev.Kind == FaultNodeUp {
				d = -1
			}
			node[ev.A] = ev.Kind == FaultNodeDown
			for _, li := range fs.nodeLinks[ev.A] {
				down[li] += d
			}
		}
		if fs.connectedOn(down, node, src, dst) {
			return ev.AtUS
		}
	}
	// Unreachable: the schedule ends healed and the topology is connected.
	panic(fmt.Sprintf("mesh: nodes %d and %d never reconnect under the installed schedule", src, dst))
}

// connectedOn reports src–dst connectivity under the scratch link state.
func (fs *faultState) connectedOn(down []int32, nodeDown []bool, src, dst int) bool {
	if nodeDown[src] || nodeDown[dst] {
		return false
	}
	if src == dst {
		return true
	}
	if fs.seen == nil {
		fs.seen = make([]bool, fs.nNodes)
	}
	for i := range fs.seen {
		fs.seen[i] = false
	}
	fs.seen[src] = true
	fs.queue = append(fs.queue[:0], int32(src))
	for qi := 0; qi < len(fs.queue); qi++ {
		u := int(fs.queue[qi])
		for _, h := range fs.adjOut[u] {
			if down[h.link] != 0 || fs.seen[h.to] {
				continue
			}
			if int(h.to) == dst {
				return true
			}
			fs.seen[h.to] = true
			fs.queue = append(fs.queue, h.to)
		}
	}
	return false
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
	fs.stats.Routed++
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
			fs.stats.Rerouted++
			fs.stats.ReroutedHops += uint64(len(p))
			fs.stats.BaseHops += base
			return nw.chargePath(p, size, depart), true
		}
	}
	if nw.react != nil {
		// Reactive mode: the message vanishes at the failure point —
		// no event, no link charges, no oracle knowledge. The sender's
		// retransmission timer is the only recovery.
		fs.stats.Dropped++
		fs.stats.DroppedBytes += uint64(size)
		return 0, false
	}
	healT := fs.healTime(src, dst)
	fs.stats.Held++
	fs.stats.HeldBytes += uint64(size)
	// The retransmission departs one send startup after the heal: the held
	// message sits in the source's network interface and the retry startup
	// is interface work, not CPU work, so it is independent of nw.cpuFree.
	// healT > depart (sync already applied every event at or before
	// depart), so the charge is a pure function of the departure time.
	depart2 := healT + nw.P.StartupSendUS
	fs.stats.RetryMsgs++
	fs.stats.RetryBytes += uint64(size)
	fs.stats.HeldUS += depart2 - depart
	// Recurse: sync(depart2) applies at least the healing event, so the
	// cursor strictly advances and the retransmission terminates.
	return fs.route(nw, src, dst, size, depart2)
}

// resetTo rewinds the engine to schedule position cursor by replaying the
// prefix from scratch (snapshot restore, inline-replay abort).
func (fs *faultState) resetTo(cursor int) {
	for i := range fs.downCount {
		fs.downCount[i] = 0
	}
	for i := range fs.nodeDown {
		fs.nodeDown[i] = false
	}
	fs.nDown = 0
	fs.nodesDown = 0
	fs.cursor = 0
	for fs.cursor < cursor {
		fs.apply(fs.sched[fs.cursor])
		fs.cursor++
	}
	fs.treeDirty = true
}
