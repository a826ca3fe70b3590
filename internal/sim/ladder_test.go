package sim

import (
	"math"
	"math/rand"
	"testing"
)

// drive feeds the same interleaved push/pop workload to a queue and
// returns the popped order. ops encodes the workload: each step pushes
// pushes[i] events (timestamps from ts) and then pops pops[i] events.
type qops struct {
	ts    []Time // timestamps, consumed in order
	pushN []int
	popN  []int
}

type evQueue interface {
	push(event)
	pop() event
	len() int
}

func runQueue(q evQueue, ops qops) []event {
	var out []event
	seq := uint64(0)
	ti := 0
	now := Time(0) // monotone floor, as the kernel guarantees
	for i := range ops.pushN {
		for j := 0; j < ops.pushN[i]; j++ {
			t := ops.ts[ti%len(ops.ts)]
			ti++
			if t < now {
				t = now
			}
			seq++
			q.push(event{t: t, seq: seq, slot: int32(seq)})
		}
		for j := 0; j < ops.popN[i] && q.len() > 0; j++ {
			e := q.pop()
			if e.t < now {
				panic("queue popped backwards in time")
			}
			now = e.t
			out = append(out, e)
		}
	}
	for q.len() > 0 {
		out = append(out, q.pop())
	}
	return out
}

// checkIdentical is the differential property: the ladder queue must pop
// the byte-identical event order the heap reference pops — on fresh
// storage and on storage recycled from a previous, differently shaped run.
func checkIdentical(t *testing.T, ops qops) {
	t.Helper()
	want := runQueue(&heapQueue{}, ops)
	lq := &ladderQueue{}
	lq.init(&evStore{own: true})
	checkPops(t, "fresh storage", runQueue(lq, ops), want)
	checkPops(t, "recycled storage", runQueue(recycledLadder(ops), ops), want)
}

// recycledLadder returns a ladder queue whose store went through the whole
// hand-over: a differently shaped run (ops' own timestamps scaled and
// reversed, bursts swapped) on another queue, its reset, release to the
// stock — trimmed and scrubbed — and adoption from there.
func recycledLadder(ops qops) *ladderQueue {
	shape := qops{pushN: ops.popN, popN: ops.pushN}
	for i := len(ops.ts) - 1; i >= 0; i-- {
		shape.ts = append(shape.ts, ops.ts[i]*37+Time(i%5))
	}
	st := &evStore{own: true}
	prev := &ladderQueue{}
	prev.init(st)
	runQueue(prev, shape)
	prev.reset()
	st.release()
	lq := &ladderQueue{}
	lq.init(&evStore{})
	return lq
}

func checkPops(t *testing.T, what string, got, want []event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: ladder popped %d events, heap %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s, pop %d: ladder (t=%v seq=%d slot=%d), heap (t=%v seq=%d slot=%d)",
				what, i, got[i].t, got[i].seq, got[i].slot, want[i].t, want[i].seq, want[i].slot)
		}
	}
	// The strict order is also checkable directly: (t, seq) must ascend.
	for i := 1; i < len(got); i++ {
		if !got[i-1].before(&got[i]) {
			t.Fatalf("%s, pop %d not in strict (t, seq) order: (%v,%d) then (%v,%d)",
				what, i, got[i-1].t, got[i-1].seq, got[i].t, got[i].seq)
		}
	}
}

// randomOps builds a random workload from a seeded source: bursty pushes
// and pops with timestamp distributions that exercise every ladder tier —
// dense ties, uniform spreads, heavy far-future tails and tiny deltas
// that stress the canonical bucket-edge comparisons.
func randomOps(rng *rand.Rand, steps int) qops {
	var ops qops
	base := Time(0)
	n := 50 + rng.Intn(2000)
	for i := 0; i < n; i++ {
		var t Time
		switch rng.Intn(5) {
		case 0: // exact ties
			t = base + Time(rng.Intn(4))*100
		case 1: // uniform near future
			t = base + rng.Float64()*1000
		case 2: // far-future tail
			t = base + 1e6 + rng.Float64()*1e6
		case 3: // sub-ulp-ish deltas around a hot timestamp
			t = base + 500 + rng.Float64()*1e-9
		default: // GCel-like constant increments
			t = base + Time(1+rng.Intn(3))*Time([]float64{2, 40, 100}[rng.Intn(3)])
		}
		ops.ts = append(ops.ts, t)
		if rng.Intn(50) == 0 {
			base += rng.Float64() * 1e5
		}
	}
	for i := 0; i < steps; i++ {
		ops.pushN = append(ops.pushN, rng.Intn(40))
		ops.popN = append(ops.popN, rng.Intn(40))
	}
	return ops
}

// TestQueueDifferentialRandom is the seed-corpus property run: many
// random (t, seq) workloads popped through the ladder queue and the heap
// oracle must produce byte-identical event order. CI runs it under -race.
func TestQueueDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkIdentical(t, randomOps(rng, 30+rng.Intn(100)))
	}
}

// TestQueueDifferentialEdgeCases pins hand-built boundary workloads:
// all-equal timestamps (zero span, seq-only order), boundary-exact
// timestamps hitting canonical bucket edges, monotone drains, front
// spills, and deep same-timestamp pileups that exhaust the rung depth.
func TestQueueDifferentialEdgeCases(t *testing.T) {
	burst := func(ts []Time, push, pop int, steps int) qops {
		ops := qops{ts: ts}
		for i := 0; i < steps; i++ {
			ops.pushN = append(ops.pushN, push)
			ops.popN = append(ops.popN, pop)
		}
		return ops
	}
	t.Run("all-equal", func(t *testing.T) {
		checkIdentical(t, burst([]Time{42}, 37, 11, 40))
	})
	t.Run("two-values", func(t *testing.T) {
		checkIdentical(t, burst([]Time{100, 200}, 23, 7, 60))
	})
	t.Run("push-all-then-drain", func(t *testing.T) {
		ts := make([]Time, 3000)
		rng := rand.New(rand.NewSource(7))
		for i := range ts {
			ts[i] = rng.Float64() * 1e6
		}
		ops := qops{ts: ts, pushN: []int{3000}, popN: []int{3000}}
		checkIdentical(t, ops)
	})
	t.Run("front-spill", func(t *testing.T) {
		// Interleave pops with pushes landing below frontEnd so the
		// sorted front grows past lqFrontCap and spills into a rung.
		ts := make([]Time, 4000)
		rng := rand.New(rand.NewSource(9))
		for i := range ts {
			ts[i] = 1000 + rng.Float64()*10
		}
		checkIdentical(t, burst(ts, 400, 1, 9))
	})
	t.Run("bucket-edges", func(t *testing.T) {
		// Timestamps exactly on canonical bucket boundaries of the rung
		// a 2048-event tail conversion creates.
		var ts []Time
		for i := 0; i < 64; i++ {
			ts = append(ts, Time(i)*math.Pi*100)
		}
		checkIdentical(t, burst(ts, 2048/32, 9, 40))
	})
	t.Run("ulp-span", func(t *testing.T) {
		// The whole workload spans a few ulps: width underflow paths.
		base := Time(1e12)
		ts := []Time{base, math.Nextafter(base, 2e12), math.Nextafter(math.Nextafter(base, 2e12), 2e12)}
		checkIdentical(t, burst(ts, 97, 13, 30))
	})
}

// FuzzQueueDifferential feeds arbitrary byte strings decoded into (t, seq)
// workloads through both queues. The seed corpus (f.Add) runs on every
// plain `go test`, including the -race CI job.
func FuzzQueueDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 0, 128, 7, 9})
	f.Add([]byte("ladder-queue-vs-heap-oracle-seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		// Decode: each byte steers a small push/pop burst; timestamps
		// derive from a rolling hash so ties and spreads both occur.
		var ops qops
		h := uint64(14695981039346656037)
		for _, b := range data {
			h = (h ^ uint64(b)) * 1099511628211
			switch b % 4 {
			case 0:
				ops.ts = append(ops.ts, Time(h%1000))
			case 1:
				ops.ts = append(ops.ts, Time(h%16)*1e5)
			case 2:
				ops.ts = append(ops.ts, Time(h%(1<<30))/256)
			default:
				ops.ts = append(ops.ts, 777)
			}
			ops.pushN = append(ops.pushN, int(b%13))
			ops.popN = append(ops.popN, int((b>>4)%9))
		}
		checkIdentical(t, ops)
	})
}
