package core

import (
	"testing"

	"diva/internal/decomp"
	"diva/internal/mesh"
)

// fastParams is a machine model with negligible startup costs: release
// fan-outs are not serialized by 100us startups, so the wake spread stays
// tight and the speculative batched release can prove itself exact.
func fastParams() mesh.Params {
	return mesh.Params{
		BytesPerUS:      100,
		HopLatencyUS:    1,
		StartupSendUS:   2,
		StartupRecvUS:   2,
		LocalDeliveryUS: 1,
	}
}

// barrierTrajectory runs rounds of barriers (with a reduction every other
// round) and returns everything observable about the run.
func barrierTrajectory(t *testing.T, cfg Config, rounds int, noBatch bool) (elapsed float64, cong mesh.Congestion, msgs [mesh.NumKinds]uint64, b *barrier) {
	t.Helper()
	m := MustNewMachine(cfg)
	m.bar.noBatch = noBatch
	err := m.Run(func(p *Proc) {
		for r := 0; r < rounds; r++ {
			if r%2 == 1 {
				got := p.BarrierReduce(p.ID, 8, func(a, b interface{}) interface{} {
					return a.(int) + b.(int)
				})
				want := m.P() * (m.P() - 1) / 2
				if got != want {
					t.Errorf("round %d: reduce = %v, want %d", r, got, want)
				}
			} else {
				p.Barrier()
			}
			// A short compute keeps processes from re-entering instantly,
			// the regime where batching can commit.
			p.Compute(float64(50 + p.ID))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, _ = m.Net.SendStats()
	return m.Elapsed(), m.Net.Congestion(nil), msgs, m.bar
}

// TestBatchedReleaseMatchesCascade: every simulated observable — elapsed
// time, congestion, per-kind send counts — must be bit-identical to the
// plain message cascade, on machines where the speculative batched release
// commits and on machines where the replay starts and the exactness gate
// rolls the InlineSendAt/InlineRecvAt journal back (wantAbort). This is the
// exactness contract of the batching gate.
func TestBatchedReleaseMatchesCascade(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       Config
		wantAbort bool
	}{
		// Binary trees keep the fan-out tight: the batch commits.
		{"mesh4x4-ary2-gcel", Config{Rows: 4, Cols: 4, Seed: 7, Tree: decomp.Ary2}, false},
		{"mesh2x2-ary2", Config{Rows: 2, Cols: 2, Seed: 3, Tree: decomp.Ary2, Net: fastParams()}, false},
		// Wider fan-outs under this trajectory's compute skew: the replay
		// starts every epoch and rolls back, low startups or GCel ones.
		{"mesh4x4-ary4", Config{Rows: 4, Cols: 4, Seed: 7, Tree: decomp.Ary4, Net: fastParams()}, true},
		{"mesh8x8-ary16", Config{Rows: 8, Cols: 8, Seed: 9, Tree: decomp.Ary16, Net: fastParams()}, true},
		{"mesh4x8-gcel", Config{Rows: 4, Cols: 8, Seed: 5, Tree: decomp.Ary4}, true},
		{"mesh4x4-ary4-gcel", Config{Rows: 4, Cols: 4, Seed: 7, Tree: decomp.Ary4}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 12
			elA, congA, msgsA, barA := barrierTrajectory(t, tc.cfg, rounds, false)
			elB, congB, msgsB, barB := barrierTrajectory(t, tc.cfg, rounds, true)
			if barB.batched != 0 {
				t.Fatalf("noBatch run still batched %d epochs", barB.batched)
			}
			if elA != elB {
				t.Errorf("elapsed: batched-gate %v != cascade %v", elA, elB)
			}
			if congA != congB {
				t.Errorf("congestion: batched-gate %+v != cascade %+v", congA, congB)
			}
			if msgsA != msgsB {
				t.Errorf("send stats diverged: %v vs %v",
					msgsA[KindBarrierRelease], msgsB[KindBarrierRelease])
			}
			if tc.wantAbort && barA.aborted == 0 {
				t.Errorf("expected the speculative replay to start and roll back, but no aborts happened (batched=%d cascaded=%d)", barA.batched, barA.cascaded)
			}
			if !tc.wantAbort && barA.batched == 0 {
				t.Errorf("expected the batch to commit, got batched=0 (cascaded=%d, aborts=%d)", barA.cascaded, barA.aborted)
			}
			t.Logf("%s: %d/%d epochs batched, %d aborted", tc.name, barA.batched, rounds, barA.aborted)
		})
	}
}

// TestBarrierReleaseWithFusedDelivery checks how the barrier's two release
// paths use the network's single-event (fused) delivery: the cascade sends
// every message as one fused hop, a committed batch accounts its release
// messages inline and takes them off the event path, and a replay the
// exactness gate rolls back leaves no inline-accounted message behind.
// Against the plain cascade, the fused hops the batched run saved must be
// exactly the messages its committed epochs accounted inline.
func TestBarrierReleaseWithFusedDelivery(t *testing.T) {
	sum := func(msgs [mesh.NumKinds]uint64) (n uint64) {
		for _, c := range msgs {
			n += c
		}
		return n
	}
	for _, tc := range []struct {
		name      string
		cfg       Config
		wantAbort bool
	}{
		{"commit-mesh4x4-ary2-gcel", Config{Rows: 4, Cols: 4, Seed: 7, Tree: decomp.Ary2}, false},
		{"commit-mesh2x2-ary2", Config{Rows: 2, Cols: 2, Seed: 3, Tree: decomp.Ary2, Net: fastParams()}, false},
		{"abort-mesh8x8-ary16", Config{Rows: 8, Cols: 8, Seed: 9, Tree: decomp.Ary16, Net: fastParams()}, true},
		{"abort-mesh4x4-ary4-gcel", Config{Rows: 4, Cols: 4, Seed: 7, Tree: decomp.Ary4}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 12
			// Read the kernel counters before the next run reuses its storage.
			_, _, msgsB, barB := barrierTrajectory(t, tc.cfg, rounds, false)
			batched, aborted, fusedB := barB.batched, barB.aborted, barB.m.K.Stat.FusedDeliveries
			_, _, msgsC, barC := barrierTrajectory(t, tc.cfg, rounds, true)
			fusedC := barC.m.K.Stat.FusedDeliveries
			if sum(msgsB) != sum(msgsC) {
				t.Fatalf("send counts diverged: batched %d, cascade %d", sum(msgsB), sum(msgsC))
			}
			if fusedC != sum(msgsC) {
				t.Errorf("cascade: %d fused hops for %d sends", fusedC, sum(msgsC))
			}
			if fusedB > fusedC {
				t.Errorf("batched run delivered %d fused hops, more than the cascade's %d", fusedB, fusedC)
			}
			inline := fusedC - fusedB
			if batched == 0 && inline != 0 {
				t.Errorf("no epoch committed, yet %d messages were accounted inline (aborts=%d)", inline, aborted)
			}
			if batched != 0 && inline == 0 {
				t.Errorf("%d epochs committed, but every message still went through fused delivery", batched)
			}
			if tc.wantAbort && aborted == 0 {
				t.Errorf("expected the speculative replay to start and roll back, but no aborts happened (batched=%d)", batched)
			}
			if !tc.wantAbort && batched == 0 {
				t.Errorf("expected the batch to commit, got batched=0 (aborts=%d)", aborted)
			}
			t.Logf("%s: %d epochs batched, %d aborted, %d of %d messages accounted inline", tc.name, batched, aborted, inline, sum(msgsC))
		})
	}
}

// TestBatchedReleaseCommitsSomewhere guards the fast path against silently
// rotting: binary decomposition trees keep the release fan-outs (and thus
// the wake spread) tight enough that the gate commits even with the GCel's
// 100us startups.
func TestBatchedReleaseCommitsSomewhere(t *testing.T) {
	_, _, _, bar := barrierTrajectory(t, Config{
		Rows: 4, Cols: 4, Seed: 7, Tree: decomp.Ary2,
	}, 12, false)
	batched, cascaded := bar.batched, bar.cascaded
	t.Logf("batched=%d cascaded=%d", batched, cascaded)
	if batched == 0 {
		t.Fatal("batched release never committed on the low-startup machine")
	}
}
