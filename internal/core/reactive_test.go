package core_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"diva/internal/core"
	"diva/internal/decomp"
	"diva/internal/mesh"
	"diva/internal/sim"
)

// Tests of the reactive fault-tolerance mode end to end: timeout-based
// failure detection, ack/retransmit transport, and strategy-level recovery
// (fixedhome home failover, accesstree re-issue), under node-down windows
// that force real drops and give-ups.

// reactiveFaults is a schedule with two node outages long enough (vs the
// 2 ms default ack timeout x 5 retries) to trigger give-ups, healed well
// before any plausible end of the run.
func reactiveFaults() mesh.FaultSchedule {
	return mesh.FaultSchedule{
		{AtUS: 200, Kind: mesh.FaultNodeDown, A: 5},
		{AtUS: 60000, Kind: mesh.FaultNodeUp, A: 5},
		{AtUS: 400, Kind: mesh.FaultNodeDown, A: 10},
		{AtUS: 90000, Kind: mesh.FaultNodeUp, A: 10},
	}
}

func newReactiveMachine(t *testing.T, f core.Factory, sched mesh.FaultSchedule) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(core.Config{
		Rows: 4, Cols: 4,
		Seed:     9001,
		Tree:     decomp.Ary4,
		Strategy: f,
		Faults:   sched,
		Recovery: core.RecoveryReactive,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reactiveWorkload is a write/read rotation workload with a lock-guarded
// counter; the processes on the downed nodes keep running (only their
// network interfaces fail), so every message to or from them exercises the
// transport's recovery.
func reactiveWorkload(m *core.Machine, t *testing.T) {
	v := m.AllocAt(0, 64, 0)
	c := m.AllocAt(3, 16, 0)
	const rounds = 4
	err := m.Run(func(p *core.Proc) {
		for r := 0; r < rounds; r++ {
			writer := (r * 5) % m.P()
			if p.ID == writer {
				p.Read(v)
				p.Write(v, r+1)
			}
			p.Barrier()
			if got := p.Read(v); got != r+1 {
				t.Errorf("proc %d round %d read %v, want %d", p.ID, r, got, r+1)
			}
			p.Barrier()
		}
		if p.ID%3 == 0 {
			p.Lock(c)
			p.Write(c, p.Read(c).(int)+1)
			p.Unlock(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < m.P(); i += 3 {
		want++
	}
	if got := m.Var(c).Data; got != want {
		t.Errorf("lock-guarded counter = %v, want %d", got, want)
	}
}

// TestReactiveRecoveryBothStrategies: a reactive machine under node
// outages completes the workload with correct results for both strategies,
// and the transport's failure detection actually fired.
func TestReactiveRecoveryBothStrategies(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			m := newReactiveMachine(t, f, reactiveFaults())
			reactiveWorkload(m, t)
			fs := m.Net.FaultStats()
			if fs.Dropped == 0 {
				t.Errorf("no drops under node outages: %+v", fs)
			}
			if fs.Retransmits == 0 {
				t.Errorf("no retransmissions under node outages: %+v", fs)
			}
			if fs.Detected == 0 {
				t.Errorf("no failure detections under node outages: %+v", fs)
			}
			if fs.AckMsgs == 0 {
				t.Errorf("transport sent no acks: %+v", fs)
			}
		})
	}
}

// TestReactiveDeterministic: two identical reactive runs produce identical
// kernel fingerprints and transport counters.
func TestReactiveDeterministic(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			run := func() (uint64, mesh.FaultStats) {
				m := newReactiveMachine(t, f, reactiveFaults())
				reactiveWorkload(m, t)
				return m.K.Fingerprint(), m.Net.FaultStats()
			}
			fp1, fs1 := run()
			fp2, fs2 := run()
			if fp1 != fp2 {
				t.Errorf("fingerprints differ: %x vs %x", fp1, fp2)
			}
			if fs1 != fs2 {
				t.Errorf("fault stats differ:\n%+v\n%+v", fs1, fs2)
			}
		})
	}
}

// TestReactiveOracleDiverge: the two recovery modes simulate different
// machines — under faults their fingerprints must differ (oracle holds,
// reactive drops), while fault-free reactive still differs from fault-free
// oracle (acks and timers are simulated traffic).
func TestReactiveOracleDiverge(t *testing.T) {
	build := func(recovery string, sched mesh.FaultSchedule) uint64 {
		m, err := core.NewMachine(core.Config{
			Rows: 4, Cols: 4, Seed: 9001, Tree: decomp.Ary4,
			Strategy: testStrategies()["fixedhome"],
			Faults:   sched, Recovery: recovery,
		})
		if err != nil {
			t.Fatal(err)
		}
		reactiveWorkload(m, t)
		return m.K.Fingerprint()
	}
	if o, r := build(core.RecoveryOracle, reactiveFaults()), build(core.RecoveryReactive, reactiveFaults()); o == r {
		t.Errorf("oracle and reactive runs under faults share fingerprint %x", o)
	}
	if o, r := build(core.RecoveryOracle, nil), build(core.RecoveryReactive, nil); o == r {
		t.Errorf("fault-free oracle and reactive runs share fingerprint %x", o)
	}
}

// TestReactiveConfigValidation: transport parameters are rejected without
// reactive recovery; unknown modes are rejected.
func TestReactiveConfigValidation(t *testing.T) {
	base := core.Config{Rows: 2, Cols: 2, Seed: 1}
	bad := base
	bad.AckTimeoutUS = 500
	if _, err := core.NewMachine(bad); err == nil {
		t.Error("ack timeout accepted without reactive recovery")
	}
	bad = base
	bad.Recovery = "psychic"
	if _, err := core.NewMachine(bad); err == nil {
		t.Error("unknown recovery mode accepted")
	}
	ok := base
	ok.Recovery = core.RecoveryOracle
	if _, err := core.NewMachine(ok); err != nil {
		t.Errorf("oracle mode rejected: %v", err)
	}
	ok = base
	ok.Recovery = core.RecoveryReactive
	ok.AckTimeoutUS, ok.MaxRetries, ok.Backoff = 1000, 3, 1.5
	if _, err := core.NewMachine(ok); err != nil {
		t.Errorf("reactive mode with explicit params rejected: %v", err)
	}
}

// TestReactiveForkAB: snapshot a reactive machine mid-run (between fault
// windows, with suspects possibly still recorded), then (a) continue the
// original and (b) run the same remainder on a fork — bit-identical
// fingerprints and transport counters.
func TestReactiveForkAB(t *testing.T) {
	for name, f := range testStrategies() {
		t.Run(name, func(t *testing.T) {
			sched := mesh.FaultSchedule{
				{AtUS: 200, Kind: mesh.FaultNodeDown, A: 5},
				{AtUS: 60000, Kind: mesh.FaultNodeUp, A: 5},
			}
			m := newReactiveMachine(t, f, sched)
			v := m.AllocAt(0, 64, 0)
			warm := func(mm *core.Machine) {
				err := mm.Run(func(p *core.Proc) {
					if p.ID == 5 {
						p.Read(v)
						p.Write(v, 1)
					}
					p.Barrier()
					p.Read(v)
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			rest := func(mm *core.Machine) (uint64, mesh.FaultStats) {
				err := mm.Run(func(p *core.Proc) {
					if p.ID == 11 {
						p.Read(v)
						p.Write(v, 2)
					}
					p.Barrier()
					if got := p.Read(v); got != 2 {
						t.Errorf("proc %d read %v, want 2", p.ID, got)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				return mm.K.Fingerprint(), mm.Net.FaultStats()
			}
			warm(m)
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := snap.Fork(core.ForkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fpA, fsA := rest(m)
			fpB, fsB := rest(fork)
			if fpA != fpB {
				t.Errorf("fork diverged: %x vs %x", fpA, fpB)
			}
			if fsA != fsB {
				t.Errorf("fork fault stats diverged:\n%+v\n%+v", fsA, fsB)
			}
		})
	}
}

// TestReactiveDeterminismAfterCancel: canceling a reactive run mid-outage —
// with retransmission timers pending — reports a *CanceledError, leaves the
// machine un-snapshottable, and keeps a snapshot taken before the canceled
// run fully valid: two forks of it replay the remainder bit-identically.
func TestReactiveDeterminismAfterCancel(t *testing.T) {
	sched := mesh.FaultSchedule{
		{AtUS: 200, Kind: mesh.FaultNodeDown, A: 5},
		{AtUS: 500000, Kind: mesh.FaultNodeUp, A: 5},
	}
	m := newReactiveMachine(t, testStrategies()["fixedhome"], sched)
	v := m.AllocAt(0, 64, 0)
	workload := func(mm *core.Machine) error {
		return mm.Run(func(p *core.Proc) {
			for r := 0; r < 8; r++ {
				if p.ID == (r*5)%mm.P() {
					p.Read(v)
					p.Write(v, r+1)
				}
				p.Barrier()
				p.Read(v)
				p.Barrier()
			}
		})
	}

	// Snapshot the fresh (quiescent) machine, then cancel the run from an
	// event deep inside the outage: the flag is raised at t=5000 and the
	// kernel stops at the next checkpoint — with node 5 cut off and its
	// traffic outstanding on retransmission timers.
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var flag atomic.Bool
	m.K.SetCancel(&flag)
	m.K.At(5000, func() { flag.Store(true) })
	err = workload(m)
	var ce *sim.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("canceled run returned %v, want *sim.CanceledError", err)
	}
	if ce.Events == 0 {
		t.Fatalf("canceled at %d events, want > 0", ce.Events)
	}
	if n := m.K.Pending(); n == 0 {
		t.Fatal("no events pending at cancellation — the test lost its point")
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("canceled (non-quiescent) machine produced a snapshot")
	}

	// The pre-cancel snapshot is untouched: two forks replay the full
	// workload (across the outage and its heal) identically.
	rest := func() (uint64, mesh.FaultStats) {
		fork, err := snap.Fork(core.ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload(fork); err != nil {
			t.Fatal(err)
		}
		return fork.K.Fingerprint(), fork.Net.FaultStats()
	}
	fpA, fsA := rest()
	fpB, fsB := rest()
	if fpA != fpB || fsA != fsB {
		t.Errorf("forks of the pre-cancel snapshot diverged:\n%x %+v\n%x %+v", fpA, fsA, fpB, fsB)
	}
}
