package mesh

import (
	"unsafe"

	"diva/internal/sim"
)

// netSpare is the storage of a network that holds nothing once a run has
// drained: the message pool (its free list and the chunk length reached),
// the free receiver records with the unused
// tail of their newest chunk, the inline journal's slices and the start
// times of chargePath. HandOver gives it to a process-wide shelf when a
// run drains; the next network to need any part of it — a message, a
// receiver, a journal, a start-time buffer — takes the whole set (adopt).
// Links, clocks, inbox queues and reactive channels are machine state,
// which snapshots capture, and never leave their network.
//
// Nothing in a set refers to the network that used it: put clears a
// message and Recv a receiver record the moment they are freed, and the
// journal and the start times are plain values — so Scrub has nothing
// to do.
type netSpare struct {
	pool      msgPool
	receivers carver[receiver]
	rxFree    *receiver // linked through next
	rxN       int       // records on rxFree
	cpus      []cpuSave
	busys     []busySave
	loads     []loadSave
	stats     []statSave
	startBuf  []sim.Time
}

// The shelf's bounds: at most spareSets sets of at most spareSetBytes.
// Every run of the service benchmark and all but one figure cell leave
// less than 0.6 MiB; the 32×32 matrix square of Figure 4 leaves a
// 2.5 MiB message pool, which is dropped rather than kept resident
// between its runs.
const (
	spareSets     = 4
	spareSetBytes = 1 << 20
)

var spares = sim.NewShelf[netSpare](spareSets, spareSetBytes)

const (
	msgBytes      = int(unsafe.Sizeof(Msg{}))
	receiverBytes = int(unsafe.Sizeof(receiver{}))
)

// Bytes is the memory the set keeps alive.
func (s *netSpare) Bytes() int {
	return len(s.pool.free)*msgBytes + cap(s.pool.free)*8 +
		(s.rxN+len(s.receivers.chunk))*receiverBytes +
		cap(s.cpus)*int(unsafe.Sizeof(cpuSave{})) + cap(s.busys)*int(unsafe.Sizeof(busySave{})) +
		cap(s.loads)*int(unsafe.Sizeof(loadSave{})) + cap(s.stats)*int(unsafe.Sizeof(statSave{})) +
		cap(s.startBuf)*8
}

// Trim drops parts of the set until it is within max bytes: the message
// pool first, then the receiver records, then the rest. A message or a
// receiver keeps its whole chunk alive, so a part is dropped whole, not
// thinned.
func (s *netSpare) Trim(max int) {
	if s.Bytes() > max {
		s.pool = msgPool{}
	}
	if s.Bytes() > max {
		s.receivers, s.rxFree, s.rxN = carver[receiver]{}, nil, 0
	}
	if s.Bytes() > max {
		*s = netSpare{}
	}
}

// Scrub does nothing: see netSpare.
func (s *netSpare) Scrub() {}

// adopt takes the most recently released set, if there is one. It runs at
// the network's first need for any part of it, when every part is still
// empty.
func (nw *Network) adopt() {
	nw.own = true
	s, ok := spares.Take(0)
	if !ok {
		return
	}
	nw.pool = s.pool
	nw.inbox.receivers, nw.inbox.free = s.receivers, s.rxFree
	j := &nw.ilj
	j.cpus, j.busys, j.loads, j.stats = s.cpus, s.busys, s.loads, s.stats
	nw.startBuf = s.startBuf
}

// HandOver gives the network's run-transient storage (netSpare) to the
// shelf and leaves the network usable: it adopts afresh at its next need.
// Call it only when a run has drained — no message in flight, no process
// in Recv — as core.Machine.Run does when the kernel's Run returns with
// nothing pending.
func (nw *Network) HandOver() {
	if !nw.own {
		return // never needed storage: nothing to give
	}
	j := &nw.ilj
	s := netSpare{
		pool:      nw.pool,
		receivers: nw.inbox.receivers,
		rxFree:    nw.inbox.free,
		cpus:      j.cpus,
		busys:     j.busys,
		loads:     j.loads,
		stats:     j.stats,
		startBuf:  nw.startBuf,
	}
	for r := s.rxFree; r != nil; r = r.next {
		s.rxN++
	}
	hits, misses := nw.hits, nw.misses
	nw.pool, nw.inbox.receivers, nw.inbox.free = msgPool{}, carver[receiver]{}, nil
	j.cpus, j.busys, j.loads, j.stats = nil, nil, nil, nil
	nw.startBuf = nil
	nw.own, nw.hits, nw.misses = false, 0, 0
	spares.Give(0, s, hits, misses)
}
