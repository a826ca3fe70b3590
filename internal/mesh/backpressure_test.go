package mesh

import (
	"testing"

	"diva/internal/sim"
)

// newNet builds a network with or without wormhole backpressure.
func newNet(rows, cols int, noBP bool) (*sim.Kernel, *Network) {
	k := sim.New()
	p := testParams()
	p.NoBackpressure = noBP
	return k, NewNetwork(k, New(rows, cols), p)
}

// TestBackpressureUnblockedTimingEqual: without contention, the two models
// deliver at the same time.
func TestBackpressureUnblockedTimingEqual(t *testing.T) {
	var times [2]sim.Time
	for i, noBP := range []bool{false, true} {
		k, nw := newNet(1, 5, noBP)
		nw.Handle(20, func(m *Msg) { times[i] = k.Now() })
		k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 4, Size: 500, Kind: 20}) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if times[0] != times[1] {
		t.Fatalf("uncontended delivery differs: %v vs %v", times[0], times[1])
	}
}

// TestBackpressureHoldsUpstreamLinks: a message blocked behind a busy link
// keeps its upstream links occupied, delaying traffic that only crosses
// those upstream links.
func TestBackpressureHoldsUpstreamLinks(t *testing.T) {
	delivery := func(noBP bool) sim.Time {
		k, nw := newNet(1, 4, noBP)
		var bystander sim.Time
		nw.Handle(20, func(m *Msg) {
			if m.Tag == 3 {
				bystander = k.Now()
			}
		})
		k.At(0, func() {
			// Saturate the last link (2->3).
			nw.Send(&Msg{Src: 2, Dst: 3, Size: 4000, Kind: 20, Tag: 1})
			// A long message 0->3 queues behind it at link 2->3.
			nw.Send(&Msg{Src: 0, Dst: 3, Size: 4000, Kind: 20, Tag: 2})
		})
		// A bystander crossing only link 0->1 after the long message's
		// head has passed: with backpressure it must wait for the long
		// message to drain; without, link 0->1 frees early.
		k.At(5000, func() {
			nw.Send(&Msg{Src: 0, Dst: 1, Size: 10, Kind: 20, Tag: 3})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return bystander
	}
	with := delivery(false)
	without := delivery(true)
	if with <= without {
		t.Fatalf("backpressure did not delay upstream bystander: with=%v without=%v", with, without)
	}
}

// TestBackpressureCongestionCountsEqual: the traffic counters are a pure
// counting property, identical across timing models.
func TestBackpressureCongestionCountsEqual(t *testing.T) {
	counts := func(noBP bool) Congestion {
		k, nw := newNet(4, 4, noBP)
		nw.Handle(20, func(m *Msg) {})
		k.At(0, func() {
			for src := 0; src < 16; src++ {
				nw.Send(&Msg{Src: src, Dst: 15 - src, Size: 100, Kind: 20})
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return nw.Congestion(nil)
	}
	a, b := counts(false), counts(true)
	if a != b {
		t.Fatalf("congestion differs across timing models: %+v vs %+v", a, b)
	}
}

// TestHotspotSaturationOrdering: many senders into one node — with
// backpressure the completion time is at least the no-backpressure time.
func TestHotspotSaturationOrdering(t *testing.T) {
	finish := func(noBP bool) sim.Time {
		k, nw := newNet(8, 8, noBP)
		nw.Handle(20, func(m *Msg) {})
		k.At(0, func() {
			for src := 1; src < 64; src++ {
				nw.Send(&Msg{Src: src, Dst: 0, Size: 1000, Kind: 20})
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	if with, without := finish(false), finish(true); with < without {
		t.Fatalf("backpressure finished earlier (%v) than without (%v)", with, without)
	}
}

// TestSendStats: per-kind accounting.
func TestSendStats(t *testing.T) {
	k, nw := newNet(1, 2, false)
	nw.Handle(20, func(m *Msg) {})
	nw.Handle(21, func(m *Msg) {})
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 1, Size: 10, Kind: 20})
		nw.Send(&Msg{Src: 0, Dst: 1, Size: 20, Kind: 20})
		nw.Send(&Msg{Src: 1, Dst: 1, Size: 30, Kind: 21}) // local counts too
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs, bytes := nw.SendStats()
	if msgs[20] != 2 || bytes[20] != 30 {
		t.Fatalf("kind 20: %d msgs %d bytes", msgs[20], bytes[20])
	}
	if msgs[21] != 1 || bytes[21] != 30 {
		t.Fatalf("kind 21: %d msgs %d bytes", msgs[21], bytes[21])
	}
}
