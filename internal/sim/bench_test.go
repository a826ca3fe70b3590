package sim

import "testing"

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
			k.After(1, fn)
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
// push + one pop at that depth. The heap oracle pays O(log n) sifts here;
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
