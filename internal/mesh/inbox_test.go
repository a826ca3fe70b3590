package mesh

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"diva/internal/sim"
)

// TestInboxZeroAlloc: once a network's inbox storage has grown, a round of
// hand-optimized message passing allocates nothing — not per send, not for
// a message handed to a waiting receiver, not for one queued behind another
// tag and taken from the queue later. Chunked carving would hide a leak
// from the count, so the test also checks that messages and receiver
// records are reused: at most three messages and two receivers are live at
// once, so neither store ever needs a second chunk.
func TestInboxZeroAlloc(t *testing.T) {
	const warm, runs = 3, 20
	k, nw := newTestNet(2, 2)
	rounds := warm + runs + 1 // AllocsPerRun runs once more to warm up
	var allocs float64
	k.Spawn("a", func(p *sim.Proc) {
		round := func() {
			nw.SendInbox(p, 0, 3, 64, 1, nil)
			nw.SendInbox(p, 0, 3, 64, 2, nil)
			nw.Recv(p, 0, 3)
		}
		for i := 0; i < warm; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(runs, round)
	})
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			nw.Recv(p, 3, 2) // tag 1 arrives first and is queued
			nw.Recv(p, 3, 1)
			nw.SendInbox(p, 3, 0, 64, 3, nil)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per round, want 0", allocs)
	}
	if nw.pool.grow != msgChunkMin || nw.inbox.receivers.grow != msgChunkMin {
		t.Errorf("%d rounds grew message chunks to %d and receiver chunks to %d, want %d: records are not reused",
			rounds, nw.pool.grow, nw.inbox.receivers.grow, msgChunkMin)
	}
}

// TestInboxReceiversFIFO: two processes blocked in Recv on one node and
// tag are served in the order they started waiting.
func TestInboxReceiversFIFO(t *testing.T) {
	k, nw := newTestNet(2, 2)
	got := map[string]int{}
	for _, name := range []string{"first", "second"} {
		k.Spawn(name, func(p *sim.Proc) {
			got[name] = nw.Recv(p, 3, 7).Payload.(int)
		})
	}
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 3, Size: 10, Kind: KindInbox, Tag: 7, Payload: 1})
		nw.Send(&Msg{Src: 0, Dst: 3, Size: 10, Kind: KindInbox, Tag: 7, Payload: 2})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got["first"] != 1 || got["second"] != 2 {
		t.Fatalf("receivers got %v, want first 1 and second 2", got)
	}
}

// TestInboxOtherTagQueuedWhileWaiting: a message for another tag arriving
// while a receiver waits stays queued, and the receiver wakes only for its
// own tag.
func TestInboxOtherTagQueuedWhileWaiting(t *testing.T) {
	k, nw := newTestNet(2, 2)
	var got Msg
	var woke sim.Time = -1
	k.Spawn("recv", func(p *sim.Proc) {
		got = nw.Recv(p, 3, 9)
		woke = p.Now()
	})
	k.At(0, func() {
		nw.Send(&Msg{Src: 0, Dst: 3, Size: 10, Kind: KindInbox, Tag: 8, Payload: 100})
	})
	k.At(5000, func() {
		if woke >= 0 {
			t.Errorf("receiver on tag 9 woke at %v on a tag-8 message", woke)
		}
		nw.Send(&Msg{Src: 1, Dst: 3, Size: 10, Kind: KindInbox, Tag: 9, Payload: 200})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke < 5000 || got.Tag != 9 || got.Payload != 200 || got.Src != 1 {
		t.Fatalf("receiver woke at %v with %+v, want the tag-9 message after 5000", woke, got)
	}
	m, ok := nw.inbox.take(3, 8)
	if !ok || m.Payload != 100 {
		t.Fatalf("queued tag-8 message: %+v, %v", m, ok)
	}
}

// TestInboxRecvCopyOutlivesPool: the Msg Recv returns is the receiver's
// own; later sends that reuse the recycled pooled message leave it intact.
func TestInboxRecvCopyOutlivesPool(t *testing.T) {
	k, nw := newTestNet(2, 2)
	nw.Handle(20, func(*Msg) {})
	var first, second Msg
	k.Spawn("send", func(p *sim.Proc) {
		nw.SendInbox(p, 0, 3, 10, 7, "first")
		p.WaitUntil(10000)
		for i := 0; i < 4; i++ {
			nw.SendPooledTag(1, 2, 99, 20, 99, "other")
		}
		nw.SendInbox(p, 2, 3, 20, 7, "second")
	})
	k.Spawn("recv", func(p *sim.Proc) {
		first = nw.Recv(p, 3, 7)
		second = nw.Recv(p, 3, 7)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := Msg{Src: 0, Dst: 3, Size: 10, Kind: KindInbox, Tag: 7, Payload: "first"}
	if first != want {
		t.Fatalf("first message changed to %+v, want %+v", first, want)
	}
	if second.Src != 2 || second.Size != 20 || second.Payload != "second" {
		t.Fatalf("second message %+v", second)
	}
}

// queueInbox sends messages with the given tags from node 0 to node 3 of a
// fresh 2×2 network, payload i for the i-th, and returns the network with
// them delivered and queued in that order.
func queueInbox(t *testing.T, tags ...int) *Network {
	t.Helper()
	k, nw := newTestNet(2, 2)
	k.At(0, func() {
		for i, tag := range tags {
			nw.Send(&Msg{Src: 0, Dst: 3, Size: 10, Kind: KindInbox, Tag: tag, Payload: i})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestInboxSnapshotRestore: messages queued on several tags are captured
// in arrival order, and a fresh network restored from the capture hands
// them out per tag in that order.
func TestInboxSnapshotRestore(t *testing.T) {
	st, err := queueInbox(t, 9, 2, 9, 5, 2).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var tags, payloads []int
	for _, m := range st.Inbox {
		if m.Dst != 3 {
			t.Fatalf("captured message %+v queued at node %d, want 3", m, m.Dst)
		}
		tags, payloads = append(tags, m.Tag), append(payloads, m.Payload.(int))
	}
	if !reflect.DeepEqual(tags, []int{9, 2, 9, 5, 2}) || !reflect.DeepEqual(payloads, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("captured tags %v, payloads %v; want arrival order", tags, payloads)
	}
	_, fresh := newTestNet(2, 2)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	want := map[int][]int{2: {1, 4}, 5: {3}, 9: {0, 2}}
	for _, tag := range []int{9, 2, 5} {
		for _, w := range want[tag] {
			if m, ok := fresh.inbox.take(3, tag); !ok || m.Payload != w || m.Tag != tag {
				t.Fatalf("restored tag %d: %+v, %v; want payload %d", tag, m, ok, w)
			}
		}
		if m, ok := fresh.inbox.take(3, tag); ok {
			t.Fatalf("restored tag %d: extra message %+v", tag, m)
		}
	}
}

// TestInboxSnapshotKeepsArrivalOrder: each node's restored queue equals
// its source's element by element, across tags — the order a receiver
// taking several tags observes.
func TestInboxSnapshotKeepsArrivalOrder(t *testing.T) {
	k, nw := newTestNet(2, 2)
	k.At(0, func() {
		for i, tag := range []int{9, 2, 9, 5, 2, 7, 2} {
			dst := 1 + 2*(i%2) // nodes 1 and 3, interleaved
			nw.Send(&Msg{Src: 0, Dst: dst, Size: 10, Kind: KindInbox, Tag: tag, Payload: i})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st, err := nw.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := newTestNet(2, 2)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for n := range nw.inbox.nodes {
		var src, got []Msg
		if q := nw.inbox.nodes[n].q; q != nil {
			src = q.msgs
		}
		if q := fresh.inbox.nodes[n].q; q != nil {
			got = q.msgs
		}
		if !reflect.DeepEqual(got, src) {
			t.Errorf("node %d restored queue\n%+v\nwant\n%+v", n, got, src)
		}
	}
}

// TestCheckStateRejectsMisfitInbox: an inbox section that would not
// restore into the queues it describes is refused.
func TestCheckStateRejectsMisfitInbox(t *testing.T) {
	capture := func() (*Network, *NetworkState) {
		nw := queueInbox(t, 4, 1, 4)
		st, err := nw.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.CheckState(st); err != nil {
			t.Fatalf("live capture refused: %v", err)
		}
		return nw, st
	}
	for _, tc := range []struct {
		name string
		bend func(in []Msg)
		want string
	}{
		{"wrong kind", func(in []Msg) { in[1].Kind = 20 }, "kind 20"},
		{"wrong destination", func(in []Msg) { in[2].Dst = 2 }, "queued at node 2"},
		{"destination out of range", func(in []Msg) { in[0].Dst = 4 }, "queued at node 4"},
		{"destination negative", func(in []Msg) { in[0].Dst = -1 }, "queued at node -1"},
		{"source out of range", func(in []Msg) { in[0].Src = 4 }, "from node 4"},
		{"source negative", func(in []Msg) { in[0].Src = -1 }, "from node -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, st := capture()
			tc.bend(st.Inbox)
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

// TestCheckStateRejectsBadClocks: a link clock, node clock or compute total
// that is negative, NaN or infinite is refused before a restore would carry
// it into the simulated time.
func TestCheckStateRejectsBadClocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		bend func(st *NetworkState)
		want string
	}{
		{"link clock NaN", func(st *NetworkState) { st.LinkBusy[3] = math.NaN() }, "link clock 3 reads NaN"},
		{"link clock infinite", func(st *NetworkState) { st.LinkBusy[0] = math.Inf(1) }, "link clock 0 reads +Inf"},
		{"link clock negative", func(st *NetworkState) { st.LinkBusy[1] = -1 }, "link clock 1 reads -1"},
		{"node clock NaN", func(st *NetworkState) { st.CPUFree[2] = math.NaN() }, "node clock 2 reads NaN"},
		{"node clock infinite", func(st *NetworkState) { st.CPUFree[0] = math.Inf(1) }, "node clock 0 reads +Inf"},
		{"compute total NaN", func(st *NetworkState) { st.ComputeUS[1] = math.NaN() }, "compute total 1 reads NaN"},
		{"compute total negative infinite", func(st *NetworkState) { st.ComputeUS[3] = math.Inf(-1) }, "compute total 3 reads -Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := queueInbox(t, 4, 1)
			st, err := nw.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			tc.bend(st)
			if err := nw.CheckState(st); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckState = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestSnapshotRefusesBlockedReceiver: a process waiting in Recv cannot be
// captured.
func TestSnapshotRefusesBlockedReceiver(t *testing.T) {
	k, nw := newTestNet(2, 2)
	k.Spawn("recv", func(p *sim.Proc) { nw.Recv(p, 2, 6) })
	if err := k.Run(); err == nil {
		t.Fatal("a receiver that never gets a message did not deadlock")
	}
	if _, err := nw.SnapshotState(); err == nil || !strings.Contains(err.Error(), "blocked in Recv(tag=6)") {
		t.Fatalf("SnapshotState = %v, want a blocked-receiver error", err)
	}
}
