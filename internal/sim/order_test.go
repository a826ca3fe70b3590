package sim

import (
	"fmt"
	"math"
	"testing"
)

// orderRun drives a kernel with a workload decoded from data and checks,
// event by event, that the kernel executes exactly the (t, seq) order of the
// heap reference: every scheduling call — At, AtCall, a process wake-up
// (Spawn, Wait, Yield) or TimerAt, at the current time or later — is
// mirrored into a heapQueue, a canceled timer is marked there, and every
// executed event must be the reference's minimum when it runs. Each
// callback and each process step reads the next byte of data (cyclically,
// up to a budget) to decide what to schedule next.
type orderRun struct {
	k   *Kernel
	ref heapQueue
	// canceled holds the seqs of timers CancelTimer revoked; the reference
	// skips them when they surface. deadRef counts those still in ref.
	canceled map[uint64]bool
	deadRef  int
	timers   []TimerID
	tseqs    []uint64

	data   []byte
	cur    int
	budget int

	events uint64
	fp     uint64
	err    error
}

// byte returns the next workload byte, or false once the budget is spent.
func (r *orderRun) byte() (byte, bool) {
	if r.budget == 0 || len(r.data) == 0 {
		return 0, false
	}
	r.budget--
	b := r.data[r.cur%len(r.data)]
	r.cur++
	return b, true
}

// delay maps a byte to a delay with many ties: zero, small integers and a
// few fractional and large values.
func delay(b byte) Time {
	switch b % 6 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return Time(b % 4)
	case 3:
		return 2.5
	case 4:
		return Time(b) * 10
	default:
		return 1e-9 * Time(b)
	}
}

// expect mirrors one scheduling call: seq is the number the kernel is about
// to allocate for it.
func (r *orderRun) expect(t Time) uint64 {
	seq := r.k.seq + 1
	r.ref.push(event{t: t, seq: seq})
	return seq
}

// executed checks that (now, seq) is the reference's next live event and
// that the kernel's Pending counts exactly the reference's live events left.
func (r *orderRun) executed(seq uint64) {
	r.dropCanceled()
	now := r.k.Now()
	if r.ref.len() == 0 {
		r.fail(fmt.Errorf("event (t=%v seq=%d) executed, the reference holds none", now, seq))
		return
	}
	want := r.ref.pop()
	if want.t != now || want.seq != seq {
		r.fail(fmt.Errorf("event %d: kernel ran (t=%v seq=%d), reference (t=%v seq=%d)",
			r.events, now, seq, want.t, want.seq))
		return
	}
	r.events++
	r.fp = r.fp*fpGolden + (math.Float64bits(want.t) ^ want.seq)
	if live := r.ref.len() - r.deadRef; r.k.Pending() != live {
		r.fail(fmt.Errorf("event %d: kernel Pending() = %d, reference holds %d live events",
			r.events, r.k.Pending(), live))
	}
}

// dropCanceled pops the canceled timers at the head of the reference.
func (r *orderRun) dropCanceled() {
	for r.ref.len() > 0 && r.canceled[r.ref.h[0].seq] {
		r.ref.pop()
		r.deadRef--
	}
}

func (r *orderRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.k.Stop()
}

// step performs the scheduling action byte b selects.
func (r *orderRun) step(b byte) {
	k := r.k
	at := k.Now() + delay(b>>3)
	switch b % 8 {
	case 0:
		seq := r.expect(at)
		k.At(at, func() { r.callback(seq) })
	case 1:
		seq := r.expect(at)
		k.AtCall(at, r.typed, seq)
	case 2:
		seq := r.expect(k.Now())
		k.At(k.Now(), func() { r.callback(seq) })
	case 3, 4:
		seq := r.expect(at)
		r.timers = append(r.timers, k.TimerAt(at, r.typed, seq))
		r.tseqs = append(r.tseqs, seq)
	case 5:
		if n := len(r.timers); n > 0 {
			i := int(b>>3) % n
			if k.CancelTimer(r.timers[i]) {
				r.canceled[r.tseqs[i]] = true
				r.deadRef++
			}
		}
	case 6:
		seq := r.expect(k.Now())
		k.Spawn("p", func(p *Proc) { r.process(p, seq) })
	}
}

// callback is an At event: check it, then schedule up to two more.
func (r *orderRun) callback(seq uint64) {
	r.executed(seq)
	for i := 0; i < 2; i++ {
		if b, ok := r.byte(); ok {
			r.step(b)
		}
	}
}

// typed is the AtCall and TimerAt callback; arg is its seq.
func (r *orderRun) typed(arg interface{}) { r.callback(arg.(uint64)) }

// process checks its kick-off, then parks a few times — Wait into the
// future or Yield at the current time — scheduling from process context
// after every wake-up.
func (r *orderRun) process(p *Proc, seq uint64) {
	r.executed(seq)
	for {
		b, ok := r.byte()
		if !ok || b%5 == 0 {
			return
		}
		r.step(b >> 1)
		d := delay(b >> 2)
		seq = r.expect(p.Now() + d)
		if d == 0 {
			p.Yield()
		} else {
			p.Wait(d)
		}
		r.executed(seq)
	}
}

func checkKernelOrder(t *testing.T, data []byte) {
	t.Helper()
	r := &orderRun{k: New(), canceled: map[uint64]bool{}, data: data, budget: 600}
	for i := 0; i < 4; i++ {
		if b, ok := r.byte(); ok {
			r.step(b)
		}
	}
	err := r.k.Run()
	if r.err != nil {
		t.Fatal(r.err) // the mismatch stopped the run: report it, not what followed
	}
	if err != nil {
		t.Fatal(err)
	}
	r.dropCanceled()
	if r.ref.len() != 0 {
		t.Fatalf("run ended with %d reference events never executed", r.ref.len())
	}
	if r.k.Stat.Events != r.events || r.k.Fingerprint() != r.fp {
		t.Fatalf("kernel: %d events, fingerprint %#x; reference: %d events, %#x",
			r.k.Stat.Events, r.k.Fingerprint(), r.events, r.fp)
	}
}

// FuzzKernelOrder is the kernel-level differential: whatever mix of
// callbacks, process wake-ups and timers, at the current time or later and
// canceled or not, a workload produces, the kernel's execution order and
// Pending count must match the heap reference. The seed corpus
// runs on every plain `go test`.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{3, 3, 3, 5, 5, 0, 2, 2, 6, 6, 1, 4})
	f.Add([]byte{6, 14, 22, 30, 38, 46, 54, 62, 70, 78, 86, 94})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 0, 128, 7, 9})
	f.Add([]byte("kernel-order-vs-heap-reference-seed"))
	f.Fuzz(checkKernelOrder)
}
