package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"diva"
	"diva/spec"
)

// outcome is the simulated result of one op: what reference.json pins and
// what every op is verified against. The simulator is deterministic, so
// equality is exact.
type outcome struct {
	Fingerprint string  `json:"fingerprint"`
	Events      uint64  `json:"events"`
	ElapsedUS   float64 `json:"elapsed_us"`
	MaxBytes    uint64  `json:"max_bytes"`
	TotalBytes  uint64  `json:"total_bytes"`
	// CaptureEvents is set on the queries of a warmed machine: the events
	// its snapshot already held, which the query did not execute.
	CaptureEvents uint64 `json:"capture_events,omitempty"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (map[string]outcome, error) {
	ref := map[string]outcome{}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// opDeadline is the wall-clock bound of one op; an op that exceeds it is
// canceled at the kernel's next checkpoint and counts as failed.
const opDeadline = 60 * time.Second

// outcomeOf reads the verified quantities off a machine after a run.
func outcomeOf(m *diva.Machine, res diva.Result) outcome {
	c := m.Net.Congestion(nil)
	return outcome{
		Fingerprint: fmt.Sprintf("0x%016x", m.K.Fingerprint()),
		Events:      m.K.Stat.Events,
		ElapsedUS:   res.ElapsedUS,
		MaxBytes:    c.MaxBytes,
		TotalBytes:  c.TotalBytes,
	}
}

// runOn runs wl on m under the op deadline.
func runOn(m *diva.Machine, wl diva.Workload) (diva.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	return diva.WorkloadContext(ctx, wl).Run(m, nil)
}

// freshRun is the reference semantics of every op: build the machine the
// spec describes and run its workload once, in this goroutine.
func freshRun(s spec.Spec) (*diva.Machine, outcome, error) {
	m, wl, err := diva.FromSpec(s)
	if err != nil {
		return nil, outcome{}, err
	}
	res, err := runOn(m, wl)
	if err != nil {
		return nil, outcome{}, err
	}
	return m, outcomeOf(m, res), nil
}

// warmKeys returns the reference keys of pool seed s: its warm-up run and
// the query forked from the warmed state.
func warmKeys(seed uint64) (create, query string) {
	return fmt.Sprintf("%s/create@%d", wlWarm, seed), fmt.Sprintf("%s/query@%d", wlWarm, seed)
}

// generateReference runs every distinct spec of every workload fresh — no
// server, no fork, no snapshot file — and writes the outcomes to path. The
// serve workloads verify forked and restored runs against these, which is
// the fork == fresh-run check.
func generateReference(path string) error {
	ref := map[string]outcome{}
	add := func(key string, s spec.Spec) error {
		_, o, err := freshRun(s)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		ref[key] = o
		fmt.Fprintf(os.Stderr, "%-50s %s %9d events %12.1f sim us\n", key, o.Fingerprint, o.Events, o.ElapsedUS)
		return nil
	}
	for name, cells := range map[string][]cell{wlFigures: figuresCells, wlFaults: faultsCells} {
		for _, c := range cells {
			for v := 0; v < deckVariants; v++ {
				s, key := c.variant(name, v)
				if err := add(key, s); err != nil {
					return err
				}
			}
		}
	}
	for _, c := range serveCells {
		if err := add(wlServe+"/"+c.name, c.spec); err != nil {
			return err
		}
	}
	for _, c := range warmMissCells {
		if err := add(wlWarm+"/"+c.name, c.spec); err != nil {
			return err
		}
	}
	for i := 0; i < warmPool; i++ {
		seed := warmSeed0 + uint64(i)
		createKey, queryKey := warmKeys(seed)
		m, warm, err := freshRun(warmSpec(seed))
		if err != nil {
			return fmt.Errorf("%s: %w", createKey, err)
		}
		ref[createKey] = warm
		// The query continues the warmed machine: a fork of its snapshot
		// must replay exactly this.
		q := warmSpec(seed)
		q.Workload = warmQuery
		wl, err := diva.WorkloadFromSpec(q)
		if err != nil {
			return err
		}
		res, err := runOn(m, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", queryKey, err)
		}
		o := outcomeOf(m, res)
		o.CaptureEvents = warm.Events
		ref[queryKey] = o
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One entry per line, sorted: a regenerated file diffs by entry.
	out := []byte("{\n")
	for i, k := range keys {
		line, err := json.Marshal(ref[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		out = append(out, fmt.Sprintf("  %q: %s%s\n", k, line, sep)...)
	}
	out = append(out, "}\n"...)
	return os.WriteFile(path, out, 0o644)
}
