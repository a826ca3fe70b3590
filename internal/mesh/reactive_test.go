package mesh

import (
	"strings"
	"testing"

	"diva/internal/sim"
)

// reactiveNet builds a kernel + network with an installed schedule and the
// reactive transport enabled (install order mirrors the machine layer).
func reactiveNet(t *testing.T, tp Topology, sched FaultSchedule, p ReactParams) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.New()
	nw := NewNetwork(k, tp, testParams())
	if sched != nil {
		if err := nw.InstallFaults(sched); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.EnableReactive(p, 7); err != nil {
		t.Fatal(err)
	}
	return k, nw
}

// outstanding counts the transport's unacknowledged transmissions; each
// holds one pending retransmission timer.
func outstanding(nw *Network) int { return nw.react.live }

// fastReact is a transport tuning with round numbers for tests.
func fastReact() ReactParams {
	return ReactParams{AckTimeoutUS: 1000, MaxRetries: 10, Backoff: 2}
}

// TestFaultOverlapMergeLink: overlapping link-down windows install as their
// union (depth counting), not as a malformed alternation. Windows [0, 20000]
// and [10000, 40000] on the 2x2 pair (0,1) merge to one outage [0, 40000]:
// a message sent after the inner up (t=25000) still reroutes over the
// spanning tree.
func TestFaultOverlapMergeLink(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultLinkDown, A: 0, B: 1},
		{AtUS: 10000, Kind: FaultLinkDown, A: 0, B: 1},
		{AtUS: 20000, Kind: FaultLinkUp, A: 0, B: 1},
		{AtUS: 40000, Kind: FaultLinkUp, A: 0, B: 1},
	}
	k, nw := faultNet(t, New(2, 2), sched)
	if got := nw.FaultSchedule(); len(got) != 2 {
		t.Fatalf("merged schedule has %d events, want 2", len(got))
	}
	var at sim.Time
	nw.Handle(42, func(m *Msg) { at = k.Now() })
	k.At(25000, func() { nw.Send(&Msg{Src: 0, Dst: 1, Size: 50, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Rerouted: startupSend(100) + 3 hops * 5 + size 50 + startupRecv(100).
	if at != 25265 {
		t.Fatalf("delivery at %v, want 25265 (rerouted: the merged outage is still open)", at)
	}
}

// TestFaultOverlapMergeNode: overlapping node-churn windows act as their
// union — a message into the node is held until the *last* up, not the
// inner one.
func TestFaultOverlapMergeNode(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultNodeDown, A: 2},
		{AtUS: 5000, Kind: FaultNodeDown, A: 2},
		{AtUS: 10000, Kind: FaultNodeUp, A: 2},
		{AtUS: 20000, Kind: FaultNodeUp, A: 2},
	}
	k, nw := faultNet(t, New(2, 2), sched)
	if got := nw.FaultSchedule(); len(got) != 2 {
		t.Fatalf("merged schedule has %d events, want 2", len(got))
	}
	var at sim.Time
	nw.Handle(42, func(m *Msg) { at = k.Now() })
	k.At(1, func() { nw.Send(&Msg{Src: 0, Dst: 2, Size: 50, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at < 20000 {
		t.Fatalf("delivery at %v, want >= 20000 (held across the merged window)", at)
	}
}

// TestReactiveAckRoundTrip: on a healthy network the reliable transport
// delivers once, the receiver acks once, and nothing retransmits.
func TestReactiveAckRoundTrip(t *testing.T) {
	k, nw := reactiveNet(t, New(2, 2), nil, fastReact())
	got := 0
	nw.Handle(42, func(m *Msg) { got++ })
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 3, Size: 100, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered %d times, want 1", got)
	}
	s := nw.FaultStats()
	if s.AckMsgs != 1 || s.AckBytes != TransportAckBytes {
		t.Fatalf("acks = %d (%d bytes), want 1 (%d bytes)", s.AckMsgs, s.AckBytes, TransportAckBytes)
	}
	if s.Retransmits != 0 || s.Dropped != 0 || s.Detected != 0 {
		t.Fatalf("healthy run has retransmits=%d dropped=%d detected=%d, want all 0",
			s.Retransmits, s.Dropped, s.Detected)
	}
	if n := outstanding(nw); n != 0 {
		t.Fatalf("%d transmissions outstanding after quiescence, want 0", n)
	}
}

// TestReactiveRetransmitAcrossOutage: a message into a down node is dropped
// and the sender's timeout-driven retransmissions carry it across the heal —
// delivered exactly once, with drops and retransmits accounted.
func TestReactiveRetransmitAcrossOutage(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultNodeDown, A: 3},
		{AtUS: 5000, Kind: FaultNodeUp, A: 3},
	}
	k, nw := reactiveNet(t, New(2, 2), sched, fastReact())
	got := 0
	var at sim.Time
	nw.Handle(42, func(m *Msg) { got++; at = k.Now() })
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 3, Size: 100, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered %d times, want 1", got)
	}
	if at < 5000 {
		t.Fatalf("delivered at %v, before the heal at 5000", at)
	}
	s := nw.FaultStats()
	if s.Dropped == 0 || s.Retransmits == 0 {
		t.Fatalf("dropped=%d retransmits=%d, want both > 0", s.Dropped, s.Retransmits)
	}
	if s.AckMsgs != 1 {
		t.Fatalf("acks = %d, want 1 (only the surviving copy reaches the receiver)", s.AckMsgs)
	}
	if n := outstanding(nw); n != 0 {
		t.Fatalf("%d transmissions outstanding after quiescence, want 0", n)
	}
}

// TestReactiveGiveUpDrop: after MaxRetries+1 unacknowledged transmissions
// the sender detects the failure and consults the kind's give-up handler;
// GiveUpDrop abandons the message and retires the channel cleanly.
func TestReactiveGiveUpDrop(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultNodeDown, A: 3},
		{AtUS: 100000, Kind: FaultNodeUp, A: 3},
	}
	p := ReactParams{AckTimeoutUS: 100, MaxRetries: 2, Backoff: 2}
	k, nw := reactiveNet(t, New(2, 2), sched, p)
	delivered := 0
	nw.Handle(42, func(m *Msg) { delivered++ })
	var gu *GiveUp
	nw.OnGiveUp(42, func(g GiveUp) (int, GiveUpAction) {
		if gu == nil {
			gu = &g
		}
		if !nw.NodeDownNow(3) {
			t.Error("NodeDownNow(3) = false inside the give-up window")
		}
		return g.Dst, GiveUpDrop
	})
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 3, Size: 100, Kind: 42, Tag: 9, Payload: "p"}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("dropped message delivered %d times", delivered)
	}
	if gu == nil {
		t.Fatal("give-up handler never called")
	}
	if gu.Src != 0 || gu.Dst != 3 || gu.Kind != 42 || gu.Tag != 9 || gu.Payload != "p" {
		t.Fatalf("give-up fields = %+v", *gu)
	}
	if gu.Attempts != p.MaxRetries+1 {
		t.Fatalf("give-up after %d attempts, want %d", gu.Attempts, p.MaxRetries+1)
	}
	s := nw.FaultStats()
	if s.Detected != 1 {
		t.Fatalf("Detected = %d, want 1", s.Detected)
	}
	if n := outstanding(nw); n != 0 {
		t.Fatalf("%d transmissions outstanding after drop, want 0", n)
	}
}

// TestReactiveGiveUpRedirect: GiveUpRedirect retires the channel and
// re-targets the message at the handler's destination — the fixedhome
// failover shape — counting one failover.
func TestReactiveGiveUpRedirect(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultNodeDown, A: 3},
		{AtUS: 100000, Kind: FaultNodeUp, A: 3},
	}
	p := ReactParams{AckTimeoutUS: 100, MaxRetries: 2, Backoff: 2}
	k, nw := reactiveNet(t, New(2, 2), sched, p)
	var deliveredAt []int
	nw.Handle(42, func(m *Msg) { deliveredAt = append(deliveredAt, m.Dst) })
	nw.OnGiveUp(42, func(g GiveUp) (int, GiveUpAction) {
		return 2, GiveUpRedirect
	})
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 3, Size: 100, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(deliveredAt) != 1 || deliveredAt[0] != 2 {
		t.Fatalf("deliveries at %v, want exactly one at node 2", deliveredAt)
	}
	s := nw.FaultStats()
	if s.Failovers != 1 || s.Detected != 1 {
		t.Fatalf("failovers=%d detected=%d, want 1/1", s.Failovers, s.Detected)
	}
}

// TestReactiveGiveUpReissue: GiveUpReissue restarts the detection cycle on
// the same channel; the retransmissions eventually cross the heal and the
// message is delivered exactly once.
func TestReactiveGiveUpReissue(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultNodeDown, A: 3},
		{AtUS: 2000, Kind: FaultNodeUp, A: 3},
	}
	p := ReactParams{AckTimeoutUS: 300, MaxRetries: 1, Backoff: 2}
	k, nw := reactiveNet(t, New(2, 2), sched, p)
	got := 0
	nw.Handle(42, func(m *Msg) { got++ })
	nw.OnGiveUp(42, func(g GiveUp) (int, GiveUpAction) {
		return g.Dst, GiveUpReissue
	})
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 3, Size: 100, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered %d times, want 1", got)
	}
	s := nw.FaultStats()
	if s.Reissues == 0 {
		t.Fatal("Reissues = 0, want > 0")
	}
	if s.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1 (the suspect destination acked)", s.Recovered)
	}
	if n := outstanding(nw); n != 0 {
		t.Fatalf("%d transmissions outstanding after quiescence, want 0", n)
	}
}

// TestReactiveReissueKeepsBackoff: a re-issue restarts the attempt count
// but keeps the backoff, so the detection cycles of a message to a node
// that stays down grow — each about twice the last — instead of repeating
// from the base timeout.
func TestReactiveReissueKeepsBackoff(t *testing.T) {
	sched := FaultSchedule{
		{AtUS: 0, Kind: FaultNodeDown, A: 3},
		{AtUS: 20000, Kind: FaultNodeUp, A: 3},
	}
	p := ReactParams{AckTimeoutUS: 300, MaxRetries: 1, Backoff: 2}
	k, nw := reactiveNet(t, New(2, 2), sched, p)
	got := 0
	var giveUps []sim.Time
	nw.Handle(42, func(m *Msg) { got++ })
	nw.OnGiveUp(42, func(g GiveUp) (int, GiveUpAction) {
		giveUps = append(giveUps, k.Now())
		return g.Dst, GiveUpReissue
	})
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 3, Size: 100, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 || len(giveUps) < 3 {
		t.Fatalf("delivered %d times after %d give-ups, want once after at least 3", got, len(giveUps))
	}
	for i := 2; i < len(giveUps); i++ {
		// Jitter scales a timeout by [1, 1.25): a cycle at twice the last
		// backoff is at least 1.6 times as long.
		if last, gap := giveUps[i-1]-giveUps[i-2], giveUps[i]-giveUps[i-1]; gap < 1.5*last {
			t.Fatalf("give-ups at %v: cycle %d lasted %v after one of %v, want the backoff kept", giveUps, i, gap, last)
		}
	}
}

// TestReactiveFalseTimeouts: an ack timeout shorter than the healthy round
// trip makes the sender retransmit messages the receiver already has — the
// receiver dedups the copies (handler runs once), re-acks each, and the
// sender accounts the spurious attempts as false timeouts.
func TestReactiveFalseTimeouts(t *testing.T) {
	// Healthy 1x2 mesh: round trip ~ 2*(100+5+size) + ack size; timeout 50
	// forces several retransmissions before the first ack lands.
	p := ReactParams{AckTimeoutUS: 50, MaxRetries: 100, Backoff: 2}
	k, nw := reactiveNet(t, New(1, 2), nil, p)
	got := 0
	nw.Handle(42, func(m *Msg) { got++ })
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 1, Size: 100, Kind: 42}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered %d times, want 1 (duplicates must be dedup'd)", got)
	}
	s := nw.FaultStats()
	if s.Retransmits == 0 || s.DupDrops == 0 || s.FalseTimeouts == 0 {
		t.Fatalf("retransmits=%d dupDrops=%d falseTimeouts=%d, want all > 0",
			s.Retransmits, s.DupDrops, s.FalseTimeouts)
	}
	if s.Detected != 0 {
		t.Fatalf("Detected = %d on a healthy network, want 0", s.Detected)
	}
	if n := outstanding(nw); n != 0 {
		t.Fatalf("%d transmissions outstanding after quiescence, want 0", n)
	}
}

// TestReactiveRegistrationPanics: the reactive mode's registration guards.
func TestReactiveRegistrationPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %v, want mention of %q", name, r, want)
			}
		}()
		f()
	}

	oracle := NewNetwork(sim.New(), New(2, 2), testParams())
	mustPanic("OnGiveUp on oracle", "oracle-mode", func() {
		oracle.OnGiveUp(42, func(GiveUp) (int, GiveUpAction) { return 0, GiveUpDrop })
	})

	_, nw := reactiveNet(t, New(2, 2), nil, fastReact())
	mustPanic("OnGiveUp for ack kind", "no give-up handler", func() {
		nw.OnGiveUp(KindTransportAck, func(GiveUp) (int, GiveUpAction) { return 0, GiveUpDrop })
	})
	nw.OnGiveUp(42, func(GiveUp) (int, GiveUpAction) { return 0, GiveUpDrop })
	mustPanic("OnGiveUp twice", "registered twice", func() {
		nw.OnGiveUp(42, func(GiveUp) (int, GiveUpAction) { return 0, GiveUpDrop })
	})
	mustPanic("Handle for ack kind", "reserved for transport acks", func() {
		nw.Handle(KindTransportAck, func(*Msg) {})
	})
}

// TestEnableReactiveValidation: parameter validation and double-enable.
func TestEnableReactiveValidation(t *testing.T) {
	cases := []struct {
		name string
		p    ReactParams
		want string
	}{
		{"zero timeout", ReactParams{AckTimeoutUS: 0, MaxRetries: 1, Backoff: 1}, "ack timeout"},
		{"zero retries", ReactParams{AckTimeoutUS: 1, MaxRetries: 0, Backoff: 1}, "max retries"},
		{"backoff below one", ReactParams{AckTimeoutUS: 1, MaxRetries: 1, Backoff: 0.5}, "backoff"},
	}
	for _, tc := range cases {
		nw := NewNetwork(sim.New(), New(2, 2), testParams())
		err := nw.EnableReactive(tc.p, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	nw := NewNetwork(sim.New(), New(2, 2), testParams())
	if err := nw.EnableReactive(DefaultReactParams(), 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.EnableReactive(DefaultReactParams(), 1); err == nil {
		t.Fatal("double EnableReactive succeeded")
	}
	if !nw.Reactive() {
		t.Fatal("Reactive() = false after enable")
	}
	if nw.react.p != DefaultReactParams() {
		t.Fatalf("transport parameters %+v", nw.react.p)
	}
}
