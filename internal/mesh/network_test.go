package mesh

import (
	"testing"

	"diva/internal/sim"
)

// testParams gives round numbers for hand-computable timing checks.
func testParams() Params {
	return Params{
		BytesPerUS:      1,
		HopLatencyUS:    5,
		StartupSendUS:   100,
		StartupRecvUS:   100,
		LocalDeliveryUS: 2,
	}
}

func newTestNet(rows, cols int) (*sim.Kernel, *Network) {
	k := sim.New()
	nw := NewNetwork(k, New(rows, cols), testParams())
	return k, nw
}

func TestSendDeliversToHandler(t *testing.T) {
	k, nw := newTestNet(4, 4)
	var got *Msg
	nw.Handle(42, func(m *Msg) { got = m })
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 15, Size: 100, Kind: 42, Payload: "hi"})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Payload != "hi" {
		t.Fatal("message not delivered")
	}
}

func TestDeliveryTiming(t *testing.T) {
	k, nw := newTestNet(1, 3)
	var at sim.Time
	nw.Handle(42, func(m *Msg) { at = k.Now() })
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 2, Size: 50, Kind: 42})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// startupSend(100) + 2 hops * 5 + size 50 + startupRecv(100) = 260.
	if at != 260 {
		t.Fatalf("delivered at %v, want 260", at)
	}
}

func TestLocalDelivery(t *testing.T) {
	k, nw := newTestNet(2, 2)
	var at sim.Time
	nw.Handle(42, func(m *Msg) { at = k.Now() })
	k.At(0, func() {
		nw.Send(&Msg{Src: 1, Dst: 1, Size: 1000, Kind: 42})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// startup(100) + local(2) + recv(100); size is irrelevant locally.
	if at != 202 {
		t.Fatalf("local delivery at %v, want 202", at)
	}
	if c := nw.Congestion(nil); c.TotalMsgs != 0 {
		t.Fatal("local message counted on links")
	}
}

func TestCongestionCounting(t *testing.T) {
	k, nw := newTestNet(1, 4)
	nw.Handle(42, func(m *Msg) {})
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 3, Size: 10, Kind: 42})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	c := nw.Congestion(nil)
	if c.TotalMsgs != 3 { // three links traversed
		t.Fatalf("total link messages %d, want 3", c.TotalMsgs)
	}
	if c.MaxMsgs != 1 || c.MaxBytes != 10 {
		t.Fatalf("max = (%d msgs, %d bytes), want (1, 10)", c.MaxMsgs, c.MaxBytes)
	}
	if c.TotalBytes != 30 {
		t.Fatalf("total bytes %d, want 30", c.TotalBytes)
	}
}

func TestCongestionSnapshotDelta(t *testing.T) {
	k, nw := newTestNet(1, 2)
	nw.Handle(42, func(m *Msg) {})
	send := func() { nw.Send(&Msg{Src: 0, Dst: 1, Size: 8, Kind: 42}) }
	var snap []LinkLoad
	k.At(0, send)
	k.At(1000, func() { snap = nw.Loads() })
	k.At(2000, send)
	k.At(2001, send)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	c := nw.Congestion(snap)
	if c.MaxMsgs != 2 {
		t.Fatalf("delta congestion %d msgs, want 2", c.MaxMsgs)
	}
	if tot := nw.Congestion(nil); tot.MaxMsgs != 3 {
		t.Fatalf("total congestion %d msgs, want 3", tot.MaxMsgs)
	}
}

// TestLinkContentionSerializes: two messages crossing the same link must be
// serialized by its bandwidth.
func TestLinkContentionSerializes(t *testing.T) {
	k, nw := newTestNet(1, 2)
	var times []sim.Time
	nw.Handle(42, func(m *Msg) { times = append(times, k.Now()) })
	k.At(0, func() {
		// Two sends from node 0; the second pays the startup after the
		// first (CPU) and then queues behind it on the link.
		nw.Send(&Msg{Src: 0, Dst: 1, Size: 1000, Kind: 42})
		nw.Send(&Msg{Src: 0, Dst: 1, Size: 1000, Kind: 42})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// First: depart 100, head 105, tail 1105, recv done 1205. The link is
	// held until the tail drains (1105).
	if times[0] != 1205 {
		t.Fatalf("first delivery %v, want 1205", times[0])
	}
	// Second: depart 200 (CPU), link free at 1105 -> head 1110, tail
	// 2110, + recv 100 = 2210.
	if times[1] != 2210 {
		t.Fatalf("second delivery %v, want 2210", times[1])
	}
}

// TestOppositeDirectionsIndependent: the paper measured that both directions
// of a link are independent; verify opposing traffic does not contend.
func TestOppositeDirectionsIndependent(t *testing.T) {
	k, nw := newTestNet(1, 2)
	var times []sim.Time
	nw.Handle(42, func(m *Msg) { times = append(times, k.Now()) })
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 1, Size: 1000, Kind: 42})
		nw.Send(&Msg{Src: 1, Dst: 0, Size: 1000, Kind: 42})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if times[0] != 1205 || times[1] != 1205 {
		t.Fatalf("deliveries %v, want both 1205 (independent directions)", times)
	}
}

func TestFIFOBetweenSamePair(t *testing.T) {
	k, nw := newTestNet(1, 8)
	var order []int
	nw.Handle(42, func(m *Msg) { order = append(order, m.Tag) })
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 7, Size: 5000, Kind: 42, Tag: 1})
		nw.Send(&Msg{Src: 0, Dst: 7, Size: 10, Kind: 42, Tag: 2})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("messages reordered: %v", order)
	}
}

func TestComputeAccounting(t *testing.T) {
	k, nw := newTestNet(2, 2)
	k.Spawn("p", func(p *sim.Proc) {
		nw.Compute(p, 3, 500)
		if p.Now() != 500 {
			t.Errorf("compute did not advance time: %v", p.Now())
		}
		nw.Compute(p, 3, 250)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ct := nw.ComputeTime()
	if ct[3] != 750 {
		t.Fatalf("compute time %v, want 750", ct[3])
	}
	if ct[0] != 0 {
		t.Fatal("compute charged to wrong node")
	}
}

func TestInboxRecv(t *testing.T) {
	k, nw := newTestNet(2, 2)
	var got []int
	k.Spawn("recv", func(p *sim.Proc) {
		m1 := nw.Recv(p, 3, 7)
		got = append(got, m1.Payload.(int))
		m2 := nw.Recv(p, 3, 7)
		got = append(got, m2.Payload.(int))
	})
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 3, Size: 10, Kind: KindInbox, Tag: 7, Payload: 1})
		nw.Send(&Msg{Src: 0, Dst: 3, Size: 10, Kind: KindInbox, Tag: 7, Payload: 2})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("inbox order %v", got)
	}
}

func TestInboxTagsSeparate(t *testing.T) {
	k, nw := newTestNet(2, 2)
	var got int
	k.Spawn("recv", func(p *sim.Proc) {
		m := nw.Recv(p, 3, 9)
		got = m.Payload.(int)
	})
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 3, Size: 10, Kind: KindInbox, Tag: 8, Payload: 100})
		nw.Send(&Msg{Src: 1, Dst: 3, Size: 10, Kind: KindInbox, Tag: 9, Payload: 200})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 200 {
		t.Fatalf("received tag-8 message on tag 9: %d", got)
	}
	if _, ok := nw.inbox.take(3, 8); !ok {
		t.Fatal("tag-8 message lost")
	}
	if _, ok := nw.inbox.take(3, 8); ok {
		t.Fatal("tag-8 message taken twice")
	}
}

func TestSendFromDelaysProcess(t *testing.T) {
	k, nw := newTestNet(1, 2)
	nw.Handle(42, func(m *Msg) {})
	k.Spawn("s", func(p *sim.Proc) {
		nw.SendFrom(p, &Msg{Src: 0, Dst: 1, Size: 10, Kind: 42})
		if p.Now() != 100 {
			t.Errorf("sender resumed at %v, want 100 (startup)", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownKindPanics(t *testing.T) {
	k, nw := newTestNet(1, 2)
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 1, Size: 1, Kind: 99})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered kind did not panic")
		}
	}()
	_ = k.Run()
}

func TestHandlerDoubleRegisterPanics(t *testing.T) {
	_, nw := newTestNet(1, 2)
	nw.Handle(42, func(m *Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("double register did not panic")
		}
	}()
	nw.Handle(42, func(m *Msg) {})
}
