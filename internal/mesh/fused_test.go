package mesh

import (
	"testing"

	"diva/internal/sim"
)

// TestFusedBusyRecvTiming pins the busy-CPU case of message delivery with
// hand-computed times: when a message arrives while the destination CPU is
// still working off an earlier receive startup, its handler must run only
// once the CPU frees up, and the kernel stat must count the busy arrival.
func TestFusedBusyRecvTiming(t *testing.T) {
	k, nw := newTestNet(1, 2)
	var times []sim.Time
	nw.Handle(20, func(m *Msg) { times = append(times, k.Now()) })
	k.At(0, func() {
		// First message: depart 100, head 105, tail 105+200, arrive 305,
		// recv done 405. Second: depart 200 (CPU), waits for the link
		// (busy until 305), head 310, arrive 320 — while the CPU is
		// busy until 405 — so its receive startup runs 405..505.
		nw.Send(&Msg{Src: 0, Dst: 1, Size: 200, Kind: 20})
		nw.Send(&Msg{Src: 0, Dst: 1, Size: 10, Kind: 20})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 405 || times[1] != 505 {
		t.Fatalf("delivery times %v, want [405 505]", times)
	}
	if got := k.Stat.FusedDeliveries; got != 2 {
		t.Errorf("FusedDeliveries = %d, want 2", got)
	}
	if got := k.Stat.FusedBusyRecv; got != 1 {
		t.Errorf("FusedBusyRecv = %d, want 1 (second arrival found the CPU busy)", got)
	}
}

// TestFusedTimingGoldens pins the hand-computed delivery time of a two-hop
// message: send startup, two link hops and the receive startup.
func TestFusedTimingGoldens(t *testing.T) {
	k, nw := newTestNet(1, 3)
	var at sim.Time
	nw.Handle(20, func(m *Msg) { at = k.Now() })
	k.At(0, func() { nw.Send(&Msg{Src: 0, Dst: 2, Size: 50, Kind: 20}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 260 {
		t.Fatalf("delivered at %v, want 260", at)
	}
}
