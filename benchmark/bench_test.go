package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func readContract(t *testing.T) contract {
	t.Helper()
	var c contract
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContract holds BENCHMARK.json and the code one-to-one and inside the
// driver's limits.
func TestContract(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 || len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 || len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: outside the limits", len(c.Workloads), len(c.EndToEnd), len(c.PerLayer))
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}

	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		checkName(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	if len(c.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(c.EndToEnd), len(endToEndNames))
	}
	units := endToEndMetrics(phase{samples: []sample{{}}, first: 1, rounds: []roundStat{{}}}, []float64{1})
	for i, m := range c.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEndNames[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %q, code %q", i, m.Name, endToEndNames[i])
		}
		if got, ok := units[m.Name]; !ok || got.Unit != m.Unit || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end %s: unit %q, code reports %q", m.Name, m.Unit, got.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end %s: better %q", m.Name, m.Better)
		}
		if m.Name != "setup_s" && m.Bound > c.EndToEnd[0].Bound {
			t.Errorf("end-to-end %s: bound above setup_s's", m.Name)
		}
	}
	if c.EndToEnd[0].Name != "setup_s" || c.EndToEnd[0].Unit != "s" || c.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better: %+v", c.EndToEnd[0])
	}

	if len(c.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(c.PerLayer), len(perLayerDefs))
	}
	for i, m := range c.PerLayer {
		checkName(m.Name)
		if d := perLayerDefs[i]; m.Name != d.name || m.Unit != d.unit || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s in %s, code %s in %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for _, p := range probes {
		if !seen[p.metric] {
			t.Errorf("probe %s is not a per-layer metric", p.metric)
		}
	}
}

// TestReferenceAgainstGoldens cross-checks reference.json against values
// the repo pins elsewhere (BENCH_*.json, the verify skill, fault_test.go).
func TestReferenceAgainstGoldens(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		key         string
		simMS       float64 // to one decimal, as the goldens print it; 0 to skip
		maxBytes    uint64
		fingerprint string
	}{
		{key: "figures-dsm/fig3-at4#0", simMS: 348.0, maxBytes: 101840},
		{key: "figures-dsm/fig4-at4#0", simMS: 1407.9},
		{key: "figures-dsm/fig7-at2k4#0", simMS: 2273.1},
		{key: "faults-recovery/degraded-at4-oracle#0", fingerprint: "0xf3461460b6586779"},
	} {
		o, ok := ref[g.key]
		if !ok {
			t.Errorf("%s: not in reference.json", g.key)
			continue
		}
		if ms := float64(int(o.ElapsedUS/100+0.5)) / 10; g.simMS != 0 && ms != g.simMS {
			t.Errorf("%s: %.1f simulated ms, the repo pins %.1f", g.key, ms, g.simMS)
		}
		if g.maxBytes != 0 && o.MaxBytes != g.maxBytes {
			t.Errorf("%s: %d congestion bytes, the repo pins %d", g.key, o.MaxBytes, g.maxBytes)
		}
		if g.fingerprint != "" && o.Fingerprint != g.fingerprint {
			t.Errorf("%s: fingerprint %s, the repo pins %s", g.key, o.Fingerprint, g.fingerprint)
		}
	}
	want := (len(figuresCells)+len(faultsCells))*deckVariants + len(serveCells) + len(warmMissCells) + 2*warmPool
	if len(ref) != want {
		t.Errorf("reference.json has %d entries, the workloads have %d distinct specs", len(ref), want)
	}
}

// parallelIfServed lets the two serve workloads share the test's wall
// clock. The decks cannot: a pinned kernel sets GOMAXPROCS for the whole
// process while it runs.
func parallelIfServed(t *testing.T, workload string) {
	if workload == wlServe || workload == wlWarm {
		t.Parallel()
	}
}

// TestWorkloads runs every workload for one small round with tracing off:
// every op must verify and every end-to-end metric must come out non-zero.
func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			parallelIfServed(t, name)
			r, err := run(config{workload: name, seed: 7, small: true})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("correct=%v, %d of %d ops failed", r.Correct, r.Failed, r.Attempted)
			}
			for _, m := range endToEndNames {
				if r.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v", m, r.Metrics[m].Value)
				}
			}
			if len(r.Metrics) != len(endToEndNames) {
				t.Errorf("%d metrics reported, want %d", len(r.Metrics), len(endToEndNames))
			}
		})
	}
}

// TestTracedRun runs the traced pass (and every probe at 1000 iterations)
// on the three workloads cheap enough for a unit test; figures-dsm shares
// all its code with faults-recovery.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{wlFaults, wlServe, wlWarm} {
		t.Run(name, func(t *testing.T) {
			parallelIfServed(t, name)
			spans := filepath.Join(t.TempDir(), "spans.json")
			r, err := run(config{workload: name, seed: 7, small: true, trace: true, spans: spans})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("correct=%v, %d of %d ops failed", r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(perLayerDefs) {
				t.Errorf("%d metrics reported, want %d", len(r.Metrics), len(perLayerDefs))
			}
			mustBePositive := []string{"apps.run_ms", "apps.run_share", "sim.events", "mesh.msgs", "sim.run_ns_per_event", "trace.overhead_ratio", "spec.validate_us"}
			if name != wlFaults {
				mustBePositive = append(mustBePositive, "serve.handler_us", "serve.encode_us", "client.rtt_us", "core.fork_us", "spec.decode_us", "serve.requests")
			} else {
				mustBePositive = append(mustBePositive, "mesh.retransmits", "mesh.rerouted", "mesh.acks")
			}
			if name == wlWarm {
				mustBePositive = append(mustBePositive, "snapstore.save_ms", "snapstore.load_ms", "snapstore.file_kb", "core.wire_us", "core.snapshot_us", "diva.build_us")
			}
			for _, p := range probes {
				mustBePositive = append(mustBePositive, p.metric)
			}
			for _, m := range mustBePositive {
				if r.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v", m, r.Metrics[m].Value)
				}
			}
			if share := r.Metrics["apps.run_share"].Value; name != wlFaults && share > 0.95 {
				t.Errorf("apps.run_share %.3f on %s: the service layers should be visible here", share, name)
			}
			var trace struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Dur  float64
				}
			}
			if err := readJSON(spans, &trace); err != nil {
				t.Fatal(err)
			}
			if len(trace.TraceEvents) == 0 {
				t.Error("span file holds no events")
			}
		})
	}
}

// TestAgree: two result sets agree when every metric is within its bound,
// and disagree on a breach, a failed op or another host.
func TestAgree(t *testing.T) {
	c := readContract(t)
	contractPath := filepath.Join("..", "BENCHMARK.json")
	dir := t.TempDir()
	write := func(name string, mutate func(*record)) string {
		rec := record{Host: host{NProc: 2, CPUModel: "x", GOMAXPROCS: 2, GoVersion: "go"}, Workloads: map[string]*workloadRecord{}}
		for _, w := range c.Workloads {
			wr := &workloadRecord{Correct: true, Attempted: 100, EndToEnd: map[string]metric{}}
			for _, m := range c.EndToEnd {
				wr.EndToEnd[m.Name] = metric{100, m.Unit}
			}
			rec.Workloads[w.Name] = wr
		}
		mutate(&rec)
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", func(*record) {})
	within := write("within.json", func(r *record) {
		r.Workloads[wlServe].EndToEnd["ops_per_s"] = metric{100 * (1 - 0.9*c.EndToEnd[1].Bound), "1/s"}
	})
	if err := agreeFiles(base, within, contractPath); err != nil {
		t.Errorf("within bounds, yet: %v", err)
	}
	for name, mutate := range map[string]func(*record){
		"breach": func(r *record) {
			r.Workloads[wlServe].EndToEnd["ops_per_s"] = metric{100 * (1 - 1.1*c.EndToEnd[1].Bound), "1/s"}
		},
		"failed op":  func(r *record) { r.Workloads[wlWarm].Failed = 1 },
		"other host": func(r *record) { r.Host.NProc = 64 },
	} {
		if err := agreeFiles(base, write("other.json", mutate), contractPath); err == nil {
			t.Errorf("%s: agreeFiles reported agreement", name)
		}
	}
}
