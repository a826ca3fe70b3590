package mesh

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"diva/internal/sim"
)

// TestReactiveZeroAlloc: once a warm 8×8 network's tables have grown, the
// reactive transport allocates nothing per message, per retransmission or
// per give-up. Each cycle is one round trip between opposite corners: a
// healthy send → ack → cancel; a storm, where every transmission times out
// and the copies are dropped as duplicates and counted as false timeouts;
// and a round trip into a corner whose two links are down, where the sender
// gives up and its handler answers GiveUpRetry until the links heal.
func TestReactiveZeroAlloc(t *testing.T) {
	const (
		kind       = 7
		far        = 63
		period     = 100000 // one cycle every 100 ms of simulated time
		warm, runs = 3, 10
	)
	for _, tc := range []struct {
		name    string
		p       ReactParams
		outages bool
	}{
		{"steady", ReactParams{AckTimeoutUS: 5000, MaxRetries: 1 << 20, Backoff: 2}, false},
		{"storm", ReactParams{AckTimeoutUS: 100, MaxRetries: 1 << 20, Backoff: 2}, false},
		{"giveup-retry", ReactParams{AckTimeoutUS: 1000, MaxRetries: 2, Backoff: 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycles := warm + runs + 1 // AllocsPerRun runs once more to warm up
			var sched FaultSchedule
			if tc.outages {
				// Node far is cut off for the first 20 ms of every cycle.
				for i := 0; i < cycles; i++ {
					at := float64(i * period)
					for _, nb := range []int{far - 1, far - 8} {
						sched = append(sched,
							FaultEvent{AtUS: at, Kind: FaultLinkDown, A: nb, B: far},
							FaultEvent{AtUS: at + 20000, Kind: FaultLinkUp, A: nb, B: far})
					}
				}
			}
			k, nw := reactiveNet(t, New(8, 8), sched, tc.p)
			delivered, giveUps := 0, 0
			nw.Handle(kind, func(m *Msg) {
				delivered++
				if m.Dst == far {
					nw.SendPooled(far, 0, 64, kind, nil)
				}
			})
			if tc.outages {
				nw.OnGiveUp(kind, func(g GiveUp) (int, GiveUpAction) {
					giveUps++
					return g.Dst, GiveUpRetry
				})
			}
			// A driver process starts one round trip per period; the
			// previous one finishes while it waits for the next start.
			var allocs float64
			k.Spawn("driver", func(p *sim.Proc) {
				next := 0
				cycle := func() {
					p.WaitUntil(sim.Time(next * period))
					nw.SendPooled(0, far, 64, kind, nil)
					next++
				}
				for i := 0; i < warm; i++ {
					cycle()
				}
				allocs = testing.AllocsPerRun(runs, cycle)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per cycle, want 0", allocs)
			}
			s := nw.FaultStats()
			if delivered != 2*cycles || outstanding(nw) != 0 {
				t.Fatalf("%d deliveries and %d outstanding after %d round trips", delivered, outstanding(nw), cycles)
			}
			switch tc.name {
			case "steady":
				if s.Retransmits != 0 || s.AckMsgs != 2*uint64(cycles) {
					t.Errorf("steady cycles: %d retransmits, %d acks", s.Retransmits, s.AckMsgs)
				}
			case "storm":
				if s.Retransmits == 0 || s.DupDrops == 0 || s.FalseTimeouts == 0 {
					t.Errorf("storm cycles: %d retransmits, %d duplicates, %d false timeouts", s.Retransmits, s.DupDrops, s.FalseTimeouts)
				}
			case "giveup-retry":
				if giveUps < cycles || s.Detected != uint64(cycles) || s.Recovered != uint64(cycles) || s.Dropped == 0 {
					t.Errorf("outage cycles: %d give-ups, %d detected, %d recovered, %d dropped", giveUps, s.Detected, s.Recovered, s.Dropped)
				}
			}
		})
	}
}

// refChan is the reference receiver state: a floor and a set.
type refChan struct {
	floor uint32
	seen  map[uint32]bool
}

func (c *refChan) accept(xseq uint32) bool {
	if xseq <= c.floor || c.seen[xseq] {
		return false
	}
	c.seen[xseq] = true
	for c.seen[c.floor+1] {
		delete(c.seen, c.floor+1)
		c.floor++
	}
	return true
}

// refReact is the map-based reference of the transport's channel table.
type refReact struct {
	sent    map[[2]int]uint32
	recv    map[[2]int]*refChan
	suspect map[[2]int]sim.Time
	out     [][3]int // (src, dst, xseq) of the outstanding transmissions
}

// sortedKeys returns a channel map's keys in (src, dst) order.
func sortedKeys[V any](m map[[2]int]V) [][2]int {
	var ks [][2]int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i][0] < ks[j][0] || ks[i][0] == ks[j][0] && ks[i][1] < ks[j][1] })
	return ks
}

// capture builds the captured channel list from the reference maps: one
// channel per key of any map, in (src, dst) order.
func (ref *refReact) capture() []ReactChannel {
	chans := map[[2]int]*ReactChannel{}
	at := func(k [2]int, side uint8) *ReactChannel {
		c := chans[k]
		if c == nil {
			c = &ReactChannel{Src: int32(k[0]), Dst: int32(k[1])}
			chans[k] = c
		}
		c.Has |= side
		return c
	}
	for k, seq := range ref.sent {
		at(k, chanSend).SendSeq = seq
	}
	for k, rc := range ref.recv {
		c := at(k, chanRecv)
		c.Floor = rc.floor
		for sq := range rc.seen {
			c.Seen = append(c.Seen, sq)
		}
		slices.Sort(c.Seen)
	}
	for k, t := range ref.suspect {
		at(k, chanSusp).SuspAt = t
	}
	var out []ReactChannel
	for _, k := range sortedKeys(chans) {
		out = append(out, *chans[k])
	}
	return out
}

// FuzzReactChannels runs random first-send, retransmit, duplicate,
// out-of-order, ack and give-up sequences on the transport's channel table
// and on a map-based reference, comparing sequences, dedup verdicts,
// outstanding records, suspect state and the captured ReactState after
// every step. Some steps restore the capture into a fresh table and go on
// there.
func FuzzReactChannels(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0, 0, 0, 0, 8, 8, 8, 8, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})
	f.Add([]byte{16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 255})
	f.Add([]byte("channels against the map reference, restored and not"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const nodes = 5
		p := DefaultReactParams()
		r := newReactState(p, 1, nodes)
		ref := &refReact{
			sent:    map[[2]int]uint32{},
			recv:    map[[2]int]*refChan{},
			suspect: map[[2]int]sim.Time{},
		}
		firstSend := func(s, d int) {
			ci, xseq := r.issue(s, d)
			k := [2]int{s, d}
			ref.sent[k]++
			if xseq != ref.sent[k] {
				t.Fatalf("channel %d→%d issued %d, want %d", s, d, xseq, ref.sent[k])
			}
			r.track(xmit{src: s, dst: d, xseq: xseq, ch: ci, attempt: 1})
			ref.out = append(ref.out, [3]int{s, d, int(xseq)})
		}
		h := uint64(14695981039346656037)
		for step, b := range data {
			h = (h ^ uint64(b)) * 1099511628211
			s := int(h>>8) % nodes
			d := (s + 1 + int(h>>16)%(nodes-1)) % nodes
			pick := int(h >> 24)
			switch b % 8 {
			case 0, 1: // first send
				firstSend(s, d)
			case 2, 3: // a transmission, first, retransmitted or duplicate, in any order
				sent := ref.sent[[2]int{s, d}]
				if sent == 0 {
					continue
				}
				xseq := 1 + uint32(pick)%sent
				k := [2]int{s, d}
				if ref.recv[k] == nil {
					ref.recv[k] = &refChan{seen: map[uint32]bool{}}
				}
				if got, want := r.at(s, d).accept(xseq), ref.recv[k].accept(xseq); got != want {
					t.Fatalf("step %d: accept(%d→%d, %d) = %v, want %v", step, s, d, xseq, got, want)
				}
			case 4, 5: // an ack, of an outstanding transmission or a duplicate one
				if len(ref.out) > 0 && b&0x10 == 0 {
					o := ref.out[pick%len(ref.out)]
					s, d = o[0], o[1]
				}
				sent := ref.sent[[2]int{s, d}]
				if sent == 0 {
					continue
				}
				xseq := 1 + uint32(pick)%sent
				ci := r.channel(s, d)
				x := r.outstanding(ci, xseq)
				i := slices.Index(ref.out, [3]int{s, d, int(xseq)})
				if (x != nil) != (i >= 0) {
					t.Fatalf("step %d: outstanding(%d→%d, %d) = %v, reference has it: %v", step, s, d, xseq, x != nil, i >= 0)
				}
				if x == nil {
					continue
				}
				since, was := r.chans[ci].unsuspect()
				wantSince, wantWas := ref.suspect[[2]int{s, d}]
				if since != wantSince || was != wantWas {
					t.Fatalf("step %d: unsuspect(%d→%d) = %v, %v; want %v, %v", step, s, d, since, was, wantSince, wantWas)
				}
				delete(ref.suspect, [2]int{s, d})
				r.retire(x)
				ref.out = append(ref.out[:i], ref.out[i+1:]...)
			case 6: // a give-up: suspect, then drop, redirect or keep probing
				if len(ref.out) == 0 {
					continue
				}
				i := pick % len(ref.out)
				o := ref.out[i]
				x := r.outstanding(r.channel(o[0], o[1]), uint32(o[2]))
				if x == nil || x.src != o[0] || x.dst != o[1] {
					t.Fatalf("step %d: outstanding %v not found", step, o)
				}
				r.chans[x.ch].suspect(sim.Time(step))
				if _, ok := ref.suspect[[2]int{o[0], o[1]}]; !ok {
					ref.suspect[[2]int{o[0], o[1]}] = sim.Time(step)
				}
				switch b >> 6 {
				case 0: // drop
					r.retire(x)
					ref.out = append(ref.out[:i], ref.out[i+1:]...)
				case 1: // redirect
					r.retire(x)
					ref.out = append(ref.out[:i], ref.out[i+1:]...)
					if nd := (o[1] + 1) % nodes; nd != o[0] {
						firstSend(o[0], nd)
					}
				}
			case 7: // capture and restore into a fresh table
				if r.live > 0 {
					continue
				}
				r2 := newReactState(p, 1, nodes)
				r2.restore(r.capture())
				r = r2
			}
			if r.live != len(ref.out) {
				t.Fatalf("step %d: %d outstanding, reference has %d", step, r.live, len(ref.out))
			}
			for _, o := range ref.out {
				if x := r.outstanding(r.channel(o[0], o[1]), uint32(o[2])); x == nil || x.src != o[0] || x.dst != o[1] {
					t.Fatalf("step %d: outstanding %v not found", step, o)
				}
			}
			rc, want := r.capture(), ref.capture()
			if err := rc.check(nodes); err != nil {
				t.Fatalf("step %d: capture fails its check: %v", step, err)
			}
			if got := rc.Chans; (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: capture\n%+v\nwant\n%+v", step, got, want)
			}
		}
	})
}

// TestCheckStateRejectsMisfitReactive: the reactive section of a network
// state must hold a stream position per node and name channels between
// two nodes that exist, once each, in (src, dst) order, recording a side
// and no value of a side they do not record, with dedup sets above their
// floor and finite suspect times — a file that does not loads as an error,
// never as a run that forks.
func TestCheckStateRejectsMisfitReactive(t *testing.T) {
	// Node 3 is down while its channels give up: they are dropped, and the
	// suspicions stay.
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultNodeDown, A: 3},
		{AtUS: 50000, Kind: FaultNodeUp, A: 3},
	}
	capture := func() (*Network, *NetworkState) {
		k, nw := reactiveNet(t, New(2, 2), sched, ReactParams{AckTimeoutUS: 100, MaxRetries: 2, Backoff: 2})
		nw.Handle(20, func(*Msg) {})
		nw.OnGiveUp(20, func(GiveUp) (int, GiveUpAction) { return 0, GiveUpDrop })
		for _, d := range []int{1, 2, 3} {
			k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: d, Size: 10, Kind: 20}) })
			k.At(0, func() { nw.Send(&Msg{Src: d, Dst: 0, Size: 10, Kind: 20}) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		st, err := nw.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return nw, st
	}
	nw, st := capture()
	if err := nw.CheckState(st); err != nil {
		t.Fatalf("live capture refused: %v", err)
	}
	// Channels 0→1, 0→2, 1→0 and 2→0 delivered their message; 0→3 and 3→0
	// sent into the outage and gave up, and 2→0 gave up under the short
	// timeout before its ack came back.
	const sr, ss, all = int(chanSend | chanRecv), int(chanSend | chanSusp), int(chanSend | chanRecv | chanSusp)
	var got [][3]int
	for _, c := range st.React.Chans {
		got = append(got, [3]int{int(c.Src), int(c.Dst), int(c.Has)})
	}
	if want := [][3]int{{0, 1, sr}, {0, 2, sr}, {0, 3, ss}, {1, 0, sr}, {2, 0, all}, {3, 0, ss}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("captured channels (src, dst, sides) %v, want %v", got, want)
	}
	for _, tc := range []struct {
		name string
		bend func(rc *ReactState)
		want string
	}{
		{"node stream missing", func(rc *ReactState) { rc.RNGs = rc.RNGs[:3] }, "3 node streams"},
		{"send key out of range", func(rc *ReactState) { rc.Chans[2].Dst = 9999 }, "channel 0→9999 does not join"},
		{"receive key negative", func(rc *ReactState) { rc.Chans[3].Src = -1 }, "channel -1→0 does not join"},
		{"suspect key is the node itself", func(rc *ReactState) { rc.Chans[2].Dst = 0 }, "channel 0→0 does not join"},
		{"send key repeated", func(rc *ReactState) { rc.Chans[1].Dst = rc.Chans[0].Dst }, "not strictly ascending at 0→1"},
		{"receive keys descending", func(rc *ReactState) { rc.Chans[3], rc.Chans[4] = rc.Chans[4], rc.Chans[3] }, "not strictly ascending at 1→0"},
		{"no side recorded", func(rc *ReactState) { rc.Chans[0].Has = 0 }, "records sides 0x0"},
		{"unknown side", func(rc *ReactState) { rc.Chans[0].Has |= 8 }, "records sides 0xb"},
		{"send sequence of a channel that never sent", func(rc *ReactState) { rc.Chans[1].Has &^= chanSend }, "side it does not record"},
		{"floor of a channel that never received", func(rc *ReactState) { rc.Chans[2].Floor = 1 }, "side it does not record"},
		{"suspect time of a channel not suspected", func(rc *ReactState) { rc.Chans[2].Has &^= chanSusp }, "side it does not record"},
		{"seen at the floor", func(rc *ReactState) { rc.Chans[0].Seen = []uint32{rc.Chans[0].Floor} }, "at or below floor"},
		{"seen not ascending", func(rc *ReactState) { f := rc.Chans[0].Floor; rc.Chans[0].Seen = []uint32{f + 3, f + 2} }, "out of order"},
		{"suspect time negative", func(rc *ReactState) { rc.Chans[2].SuspAt = -1 }, "time -1"},
		{"suspect time NaN", func(rc *ReactState) { rc.Chans[2].SuspAt = math.NaN() }, "time NaN"},
		{"suspect time infinite", func(rc *ReactState) { rc.Chans[2].SuspAt = math.Inf(1) }, "time +Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, st := capture()
			tc.bend(st.React)
			err := nw.CheckState(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckState = %v, want an error mentioning %q", err, tc.want)
			}
			if err := nw.RestoreState(st); err == nil {
				t.Fatal("RestoreState accepted the state")
			}
		})
	}
}
