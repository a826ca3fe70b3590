package diva_test

import (
	"errors"
	"fmt"
	"testing"

	"diva"
	"diva/spec"
)

// eventBudget is a cancellation flag that trips once the condition holds;
// the kernel polls it on the goroutine running the events.
type eventBudget func() bool

func (b eventBudget) Load() bool { return b() }

// TestReactiveAccessTreeTerminates: reactive access trees whose
// transmissions give up and re-issue run to the end. A re-issue keeps its
// backoff; when it restarted from the base timeout, the round trip under
// the load of the retransmissions stayed beyond what the retries could
// reach, and these runs re-issued forever. Each run gets an event budget,
// so a regression fails instead of hanging: the reproducer of the
// benchmark README (a healthy 8×8 mesh, 300 µs ack timeout) and the two
// full-scale at4 reactive cells of the recovery figure.
func TestReactiveAccessTreeTerminates(t *testing.T) {
	recoveryCell := func(topo string) diva.Spec {
		return diva.Spec{
			Topology: topo, Rows: 8, Cols: 8, Strategy: "at4", Seed: 1999,
			Recovery: spec.RecoveryReactive, AckTimeoutUS: 500, MaxRetries: 3, Backoff: 2,
			Fault:    &spec.Fault{LinkFailures: 2, NodeChurn: 1},
			Workload: diva.WorkloadSpec{Name: "matmul", Block: 256},
		}
	}
	cases := []struct {
		name      string
		spec      diva.Spec
		elapsedMS string
		events    uint64
		fp        uint64
	}{
		{"reproducer", diva.Spec{
			Rows: 8, Cols: 8, Strategy: "at4", Seed: 1999,
			Recovery: spec.RecoveryReactive, AckTimeoutUS: 300,
			Workload: diva.WorkloadSpec{Name: "matmul", Block: 256},
		}, "1234.0", 160979, 0xb5ce473197ba582f},
		{"recovery-mesh", recoveryCell("mesh"), "991.7", 140662, 0x337ab230b280d463},
		{"recovery-degraded", recoveryCell("graph:degraded"), "1745.6", 176304, 0x6cdc8b4b58876e5b},
	}
	const budget = 400_000 // events; the re-issuing runs did 11 M in 8 s of wall time
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, w, err := diva.FromSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			m.K.SetCancel(eventBudget(func() bool { return m.K.Stat.Events > budget }))
			res, err := w.Run(m, nil)
			if errors.Is(err, diva.ErrCanceled) {
				t.Fatalf("still running after the budget of %d events: %v", budget, err)
			}
			if err != nil {
				t.Fatal(err)
			}
			st := m.Net.FaultStats()
			if st.Reissues == 0 {
				t.Errorf("no re-issues: the run no longer exercises the re-issue path")
			}
			got := fmt.Sprintf("%.1f", res.ElapsedUS/1000)
			if got != tc.elapsedMS || m.K.Stat.Events != tc.events || m.K.Fingerprint() != tc.fp {
				t.Errorf("%s ms, %d events, fingerprint %#x; want %s ms, %d events, %#x",
					got, m.K.Stat.Events, m.K.Fingerprint(), tc.elapsedMS, tc.events, tc.fp)
			}
		})
	}
}
