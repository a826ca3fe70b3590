package mesh

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"diva/internal/sim"
)

// finalized counts the payloads the collector has freed. A payload holds a
// pointer and is larger than 16 bytes, so it never comes from the tiny
// allocator, whose objects may never be finalized.
type finalized struct{ n atomic.Int32 }

type payloadBox struct {
	p   *int
	pad [4]int
}

func (f *finalized) box() *payloadBox {
	b := &payloadBox{}
	runtime.SetFinalizer(b, func(*payloadBox) { f.n.Add(1) })
	return b
}

// await collects until want payloads are finalized or a second has passed.
func (f *finalized) await(want int32) int32 {
	for i := 0; i < 100 && f.n.Load() < want; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	return f.n.Load()
}

// TestHandedOverNetworkIsCleared inspects the set a drained network hands
// over: every free message is blank, every free receiver record holds no
// message, the journal and start times hold values only, and so the
// payloads the run carried — pooled sends, inbox messages, messages copied
// into waiting receivers — are collected while the set waits on the shelf.
func TestHandedOverNetworkIsCleared(t *testing.T) {
	sim.DropSpares()
	var fin finalized
	const procs = 16
	func() {
		k := sim.New()
		nw := NewNetwork(k, New(4, 4), GCelParams())
		nw.Handle(7, func(*Msg) {})
		for i := 0; i < procs; i++ {
			i := i
			k.Spawn(fmt.Sprint("p", i), func(p *sim.Proc) {
				// Even nodes wait in Recv before their message arrives (a
				// receiver record); odd nodes send one.
				if i%2 == 0 {
					nw.Recv(p, i, 1)
				} else {
					nw.SendInbox(p, i, i-1, 64, 1, fin.box())
				}
				nw.SendPooled(i, (i+5)%procs, 32, 7, fin.box())
			})
		}
		k.At(1, func() {
			nw.InlineBegin()
			nw.InlineRecvAt(3, nw.InlineSendAt(1, 0, 15, 8, 7))
			nw.InlineCommit()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		nw.HandOver()
		if nw.own || nw.pool.free != nil || nw.inbox.free != nil || nw.startBuf != nil || nw.ilj.busys != nil {
			t.Fatal("network kept storage it handed over")
		}
	}()

	// Take the set to look at it, and give it back for the collection.
	if n := spares.Stats().Sets; n != 1 {
		t.Fatalf("shelf holds %d sets, want 1", n)
	}
	set, _ := spares.Take(0)
	s := &set
	if len(s.pool.free) == 0 || s.rxN == 0 || cap(s.busys) == 0 || cap(s.cpus) == 0 || cap(s.startBuf) == 0 {
		t.Fatalf("set is partly empty (%d messages, %d receivers, journal %d/%d, %d start times): the run did not exercise it",
			len(s.pool.free), s.rxN, cap(s.busys), cap(s.cpus), cap(s.startBuf))
	}
	for _, m := range s.pool.free {
		if *m != (Msg{pooled: true}) {
			t.Fatalf("free message keeps %+v", *m)
		}
	}
	n := 0
	for r := s.rxFree; r != nil; r = r.next {
		if n++; r.msg != (Msg{}) || r.tag != 0 || r.f.Done() {
			t.Fatalf("free receiver record keeps tag %d, message %+v", r.tag, r.msg)
		}
	}
	if n != s.rxN {
		t.Fatalf("set counts %d receiver records, holds %d", s.rxN, n)
	}
	if got := s.Bytes(); got > spareSetBytes {
		t.Fatalf("set holds %d bytes, cap %d", got, spareSetBytes)
	}
	spares.Give(0, set, 0, 0)

	want := int32(procs + procs/2)
	if got := fin.await(want); got != want {
		t.Fatalf("%d of %d payloads collected: the shelf keeps the finished network's messages alive", got, want)
	}
	if st := spares.Stats(); st.Sets != 1 {
		t.Fatalf("the set left the shelf (%d sets) before the payloads were collected", st.Sets)
	}
}
