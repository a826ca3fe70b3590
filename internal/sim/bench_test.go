package sim

import (
	"strconv"
	"testing"
)

// BenchmarkKernelEventChurn measures raw event throughput at a standing
// population of one: one schedule + pop + dispatch per iteration. The
// closure is long-lived, so the steady state allocates nothing.
func BenchmarkKernelEventChurn(b *testing.B) {
	k := New()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			k.At(k.Now()+1, fn)
		}
	}
	k.At(0, fn)
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchKernelQueue measures pure schedule/pop churn through the ladder
// event queue at a standing population of `size` events: the queue is
// pre-filled with uniformly spread timestamps and every executed event
// reschedules itself `size` microseconds ahead, so each iteration is one
// push + one pop at that depth. A heap pays O(log n) sifts here;
// the ladder's amortized cost stays flat as size grows (compare the
// BenchmarkKernelQueue* ns/op against each other in BENCH_*.json).
func benchKernelQueue(b *testing.B, size int) {
	k := New()
	n := 0
	var fn func(interface{})
	fn = func(x interface{}) {
		n++
		if n <= b.N {
			k.AtCall(k.Now()+float64(size), fn, nil)
		}
	}
	for i := 0; i < size; i++ {
		k.AtCall(Time(i+1), fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkKernelQueue256(b *testing.B)   { benchKernelQueue(b, 256) }
func BenchmarkKernelQueue4096(b *testing.B)  { benchKernelQueue(b, 4096) }
func BenchmarkKernelQueue65536(b *testing.B) { benchKernelQueue(b, 65536) }

// BenchmarkKernelColdRun is the kernel's share of a small service request:
// a new kernel, 1 024 process-less events over a spread of timestamps, run
// to the end, dropped. B/op is what a run costs once the stock holds the
// previous one's storage.
func BenchmarkKernelColdRun(b *testing.B) {
	fn := func(interface{}) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New()
		for j := 0; j < 1024; j++ {
			k.AtCall(Time((j*7919)%4096), fn, nil)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimerArmCancel is the reactive transport's timer pattern in
// steady state: every iteration is one hop of 1 µs that arms a timeout
// 2 000 µs ahead and cancels the one armed a hop earlier, as an ack does.
// The canceled timers stand in the queue as dead entries until their time
// passes, about 2 000 at once; the steady state allocates nothing.
func BenchmarkTimerArmCancel(b *testing.B) {
	k := New()
	n := 0
	var id TimerID
	noop := func(interface{}) {}
	var hop func(interface{})
	hop = func(interface{}) {
		k.CancelTimer(id)
		id = k.TimerAt(k.Now()+2000, noop, nil)
		if n++; n < b.N {
			k.AtCall(k.Now()+1, hop, nil)
		}
	}
	k.AtCall(0, hop, nil)
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// switchKernel returns a kernel on which procs processes wake in turn: each
// Wait(1) of every process is one switch to the next (through the driving
// goroutine), rounds of them per process.
func switchKernel(procs, rounds int) *Kernel {
	k := New()
	body := func(p *Proc) {
		for j := 0; j < rounds; j++ {
			p.Wait(1)
		}
	}
	recs := make([]Proc, procs)
	for i := range recs {
		k.SpawnAt(&recs[i], i, body)
	}
	return k
}

// BenchmarkProcSwitch is one process switch per iteration at a standing
// population of 2, 64 and 1 024 parked processes.
func BenchmarkProcSwitch(b *testing.B) {
	for _, procs := range []int{2, 64, 1024} {
		b.Run(strconv.Itoa(procs), func(b *testing.B) {
			k := switchKernel(procs, b.N/procs+1)
			b.ReportAllocs()
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSpawnRun is the process runtime's share of a request: a new
// kernel, 16 or 1 024 processes that wait once each, run, dropped.
func BenchmarkSpawnRun(b *testing.B) {
	for _, procs := range []int{16, 1024} {
		b.Run(strconv.Itoa(procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := switchKernel(procs, 1).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
